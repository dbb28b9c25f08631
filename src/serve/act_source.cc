#include "serve/act_source.hh"

#include <algorithm>
#include <utility>

#include "ckpt/io.hh"

namespace graphene {
namespace serve {

namespace {

/** Pattern families a SourceSpec may name. */
constexpr const char *kFamilies[] = {"uniform", "s1", "s2", "s3",
                                     "s4",      "double", "worst"};

bool
knownFamily(const std::string &family)
{
    return std::any_of(std::begin(kFamilies), std::end(kFamilies),
                       [&](const char *f) { return family == f; });
}

bool
familyTakesParam(const std::string &family)
{
    return family == "s1" || family == "s2" || family == "worst";
}

/** Rows the cursor skips/validates per restore round trip. */
constexpr std::size_t kSkipChunk = 4096;

} // namespace

// ---------------------------------------------------------------------------
// SourceSpec

std::string
SourceSpec::describe() const
{
    if (kind == Kind::TraceFile)
        return strprintf("trace:%s", path.c_str());
    return strprintf("pattern:%s/p%u/seed%llu", family.c_str(), param,
                     static_cast<unsigned long long>(seed));
}

Result<void>
SourceSpec::validate() const
{
    ErrorCollector c(ErrorCode::Config, "serve source spec");
    if (kind == Kind::TraceFile) {
        if (path.empty())
            c.add("trace source requires a non-empty path");
    } else {
        if (!knownFamily(family))
            c.add(strprintf("unknown pattern family '%s' (expected "
                            "uniform, s1, s2, s3, s4, double, worst)",
                            family.c_str()));
        if (familyTakesParam(family) && param == 0)
            c.add(strprintf("family '%s' requires param >= 1",
                            family.c_str()));
    }
    return c.finish();
}

void
SourceSpec::save(ckpt::Writer &w) const
{
    w.u8(static_cast<std::uint8_t>(kind));
    w.str(path);
    w.str(family);
    w.u32(param);
    w.u64(seed);
}

SourceSpec
SourceSpec::load(ckpt::Reader &r)
{
    SourceSpec spec;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(Kind::Pattern))
        r.fail();
    spec.kind = kind == 0 ? Kind::TraceFile : Kind::Pattern;
    spec.path = r.str();
    spec.family = r.str();
    spec.param = r.u32();
    spec.seed = r.u64();
    return spec;
}

// ---------------------------------------------------------------------------
// ChunkedTraceSource

ChunkedTraceSource::ChunkedTraceSource(std::string path,
                                       std::uint64_t rows_per_bank)
    : _path(std::move(path)), _rowsPerBank(rows_per_bank)
{
}

std::string
ChunkedTraceSource::name() const
{
    return strprintf("trace:%s", _path.c_str());
}

Result<void>
ChunkedTraceSource::reopen()
{
    _cursor.reset();
    _file.close();
    _file.clear();
    _file.open(_path);
    if (!_file)
        return Error(ErrorCode::Io,
                     strprintf("cannot open ACT trace '%s'",
                               _path.c_str()));
    _cursor.emplace(_file);
    return Result<void>::success();
}

Result<std::size_t>
ChunkedTraceSource::fill(std::vector<Row> &out, std::size_t max)
{
    if (_pending)
        return *_pending; // restore-time failure, reported here
    if (max == 0)
        return std::size_t{0};
    if (!_cursor) {
        Result<void> opened = reopen();
        if (!opened.ok())
            return opened.error();
    }

    const std::size_t before = out.size();
    for (;;) {
        Result<std::size_t> got = _cursor->read(out, max);
        if (!got.ok())
            return got.error();
        if (got.value() > 0)
            break;
        // Clean end of file: loop back to the start (TracePattern's
        // replay semantics, without its whole-file buffer). An empty
        // file cannot spin here — the cursor types that as Parse.
        ++_pass;
        _consumedThisPass = 0;
        Result<void> opened = reopen();
        if (!opened.ok())
            return opened.error();
    }

    const std::size_t n = out.size() - before;
    for (std::size_t i = before; i < out.size(); ++i) {
        if (out[i].value() >= _rowsPerBank)
            return Error(
                ErrorCode::Parse,
                strprintf("ACT trace '%s': row %llu out of range "
                          "(bank has %llu rows)",
                          _path.c_str(),
                          static_cast<unsigned long long>(
                              out[i].value()),
                          static_cast<unsigned long long>(
                              _rowsPerBank)));
    }
    _consumedThisPass += n;
    return n;
}

Result<void>
ChunkedTraceSource::skipRecords(std::uint64_t n)
{
    std::vector<Row> scratch;
    scratch.reserve(std::min<std::uint64_t>(n, kSkipChunk));
    std::uint64_t left = n;
    while (left > 0) {
        scratch.clear();
        Result<std::size_t> got = _cursor->read(
            scratch,
            static_cast<std::size_t>(
                std::min<std::uint64_t>(left, kSkipChunk)));
        if (!got.ok())
            return got.error();
        if (got.value() == 0)
            return Error(
                ErrorCode::Parse,
                strprintf("ACT trace '%s' is shorter than the "
                          "checkpointed position (%llu records "
                          "still to skip): the file changed since "
                          "the checkpoint was taken",
                          _path.c_str(),
                          static_cast<unsigned long long>(left)));
        left -= got.value();
    }
    return Result<void>::success();
}

void
ChunkedTraceSource::saveState(ckpt::Writer &w) const
{
    // Position only: the file is re-scanned on restore, so the
    // checkpoint stays O(1) however long the trace is.
    w.u64(_pass);
    w.u64(_consumedThisPass);
}

void
ChunkedTraceSource::restoreState(ckpt::Reader &r)
{
    _pass = r.u64();
    _consumedThisPass = r.u64();
    _pending.reset();
    _cursor.reset();
    if (r.failed())
        return; // payload-shape problem: the reader reports it
    // Environment problems from here on are not the checkpoint's
    // fault — defer them to the next fill() as typed Io/Parse
    // errors instead of latching the reader.
    Result<void> opened = reopen();
    if (!opened.ok()) {
        _pending = opened.error();
        return;
    }
    Result<void> skipped = skipRecords(_consumedThisPass);
    if (!skipped.ok())
        _pending = skipped.error();
}

// ---------------------------------------------------------------------------
// PatternSource

PatternSource::PatternSource(
    std::string name, std::unique_ptr<workloads::ActPattern> pattern)
    : _name(std::move(name)), _pattern(std::move(pattern))
{
}

std::string
PatternSource::name() const
{
    return _name;
}

Result<std::size_t>
PatternSource::fill(std::vector<Row> &out, std::size_t max)
{
    out.reserve(out.size() + max);
    for (std::size_t i = 0; i < max; ++i)
        out.push_back(_pattern->next());
    return max;
}

void
PatternSource::saveState(ckpt::Writer &w) const
{
    _pattern->saveState(w);
}

void
PatternSource::restoreState(ckpt::Reader &r)
{
    _pattern->restoreState(r);
}

// ---------------------------------------------------------------------------
// makeSource

Result<std::unique_ptr<ActSource>>
makeSource(const SourceSpec &spec, std::uint64_t rows_per_bank)
{
    Result<void> valid = spec.validate();
    if (!valid.ok())
        return valid.error();

    if (spec.kind == SourceSpec::Kind::TraceFile)
        return std::unique_ptr<ActSource>(
            new ChunkedTraceSource(spec.path, rows_per_bank));

    std::unique_ptr<workloads::ActPattern> pattern;
    if (spec.family == "uniform")
        // All-noise dilution of a single-row base: uniform random
        // rows, the well-behaved-tenant profile.
        pattern = std::make_unique<workloads::NoisyPattern>(
            "uniform", workloads::patterns::s3(rows_per_bank), 1.0,
            rows_per_bank, spec.seed);
    else if (spec.family == "s1")
        pattern = workloads::patterns::s1(spec.param, rows_per_bank,
                                          spec.seed);
    else if (spec.family == "s2")
        pattern = workloads::patterns::s2(spec.param, rows_per_bank,
                                          spec.seed);
    else if (spec.family == "s3")
        pattern = workloads::patterns::s3(rows_per_bank);
    else if (spec.family == "s4")
        pattern = workloads::patterns::s4(rows_per_bank, spec.seed);
    else if (spec.family == "double")
        pattern = std::make_unique<workloads::DoubleSidedPattern>(
            Row{static_cast<Row::rep>(rows_per_bank / 2)});
    else if (spec.family == "worst")
        pattern = workloads::patterns::counterWorstCase(
            spec.param, rows_per_bank, spec.seed);
    else
        return Error(ErrorCode::NotFound,
                     strprintf("unknown pattern family '%s'",
                               spec.family.c_str()));

    return std::unique_ptr<ActSource>(
        new PatternSource(spec.describe(), std::move(pattern)));
}

// ---------------------------------------------------------------------------
// StreamPattern

// The source's name is captured once here, so refill(), which runs
// on the per-ACT path, needs no virtual name() call on its error path.
StreamPattern::StreamPattern(ActSource &source, std::size_t chunk_rows)
    : _source(source), _chunkRows(chunk_rows == 0 ? 1 : chunk_rows),
      _sourceName(source.name())
{
}

std::string
StreamPattern::name() const
{
    return "serve:" + _sourceName;
}

Row
StreamPattern::next()
{
    if (_pos >= _buf.size())
        refill();
    if (_error)
        return Row{0}; // inert degradation; the session fails cleanly
    ++_consumed;
    return _buf[_pos++];
}

void
StreamPattern::refill()
{
    if (_error)
        return;
    _buf.clear();
    _pos = 0;
    Result<std::size_t> got = _source.fill(_buf, _chunkRows);
    if (!got.ok()) {
        _error = got.error();
        return;
    }
    if (got.value() == 0) {
        _error = Error(ErrorCode::Internal,
                       strprintf("ACT source '%s' produced no rows",
                                 _sourceName.c_str()));
        return;
    }
    _peakBuffered = std::max(_peakBuffered, _buf.size());
}

void
StreamPattern::saveState(ckpt::Writer &w) const
{
    w.u64(_consumed);
    // The unconsumed buffer tail rides along (bounded by one chunk)
    // so the restored stream resumes mid-chunk bit-exactly.
    const std::uint64_t rem = _buf.size() - _pos;
    w.u64(rem);
    for (std::size_t i = _pos; i < _buf.size(); ++i)
        w.u32(_buf[i].value());
    _source.saveState(w);
}

void
StreamPattern::restoreState(ckpt::Reader &r)
{
    _consumed = r.u64();
    const std::uint64_t rem = r.u64();
    _buf.clear();
    _pos = 0;
    if (rem > _chunkRows) {
        r.fail(); // a remainder larger than a chunk cannot be ours
        return;
    }
    for (std::uint64_t i = 0; i < rem; ++i)
        _buf.push_back(Row{static_cast<Row::rep>(r.u32())});
    _peakBuffered = std::max(_peakBuffered, _buf.size());
    _error.reset();
    _source.restoreState(r);
}

} // namespace serve
} // namespace graphene
