#include "workloads/trace_io.hh"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/logging.hh"
#include "workloads/synthetic.hh"

namespace graphene {
namespace workloads {

void
writeTrace(std::ostream &os, const std::vector<TraceRecord> &records)
{
    os << "# graphene request trace v1\n";
    os << "# <issue-cycle> <hex-address> R|W <core>\n";
    for (const auto &r : records) {
        os << r.issue << " 0x" << std::hex << r.addr << std::dec
           << (r.isWrite ? " W " : " R ") << r.coreId << "\n";
    }
}

namespace {

Error
parseError(const char *what, std::size_t line_no,
           const std::string &line)
{
    return Error(ErrorCode::Parse,
                 strprintf("%s at line %zu: '%s'", what, line_no,
                           line.c_str()));
}

/** The whitespace formatted extraction skips in the classic locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
           c == '\f' || c == '\r';
}

/**
 * Field scanner over one trace line, with the grammar of formatted
 * istream extraction (`is >> field`, classic locale) but no stream:
 * each field skips leading whitespace and ends at the first character
 * it cannot use, so fields need no separator where digits end
 * ("10 0x10R 1" is a valid request). A number is an optional '+',
 * then (hex fields only) an optional "0x"/"0X" prefix, then at least
 * one digit, parsed by std::from_chars; a value out of the field's
 * range fails.
 */
class FieldScanner
{
  public:
    explicit FieldScanner(std::string_view line)
        : _pos(line.data()), _end(line.data() + line.size())
    {
    }

    /**
     * istream extraction into an unsigned type silently wraps
     * negative input ("-5" becomes 2^64-5), so a line with a minus
     * sign anywhere is rejected before any field is scanned.
     */
    static bool hasMinusSign(std::string_view line)
    {
        return line.find('-') != std::string_view::npos;
    }

    template <typename T>
    bool scanUnsigned(T &out, int base)
    {
        skipSpace();
        if (_pos != _end && *_pos == '+')
            ++_pos;
        if (base == 16 && _end - _pos >= 2 && _pos[0] == '0' &&
            (_pos[1] == 'x' || _pos[1] == 'X'))
            _pos += 2;
        const std::from_chars_result got =
            std::from_chars(_pos, _end, out, base);
        _pos = got.ptr;
        return got.ec == std::errc();
    }

    /** A maximal run of non-whitespace characters (empty at end). */
    std::string_view scanToken()
    {
        skipSpace();
        const char *begin = _pos;
        while (_pos != _end && !isSpace(*_pos))
            ++_pos;
        return {begin, static_cast<std::size_t>(_pos - begin)};
    }

    /** True when nothing but whitespace is left. */
    bool atLineEnd()
    {
        skipSpace();
        return _pos == _end;
    }

  private:
    void skipSpace()
    {
        while (_pos != _end && isSpace(*_pos))
            ++_pos;
    }

    const char *_pos;
    const char *_end;
};

/**
 * Parse one ACT-trace record line into @p row. Returns nullptr on
 * success, else what went wrong (the start of the Parse error text).
 */
const char *
parseActLine(std::string_view line, Row &row)
{
    FieldScanner f(line);
    std::uint64_t row_bits = 0;
    if (FieldScanner::hasMinusSign(line) || !f.scanUnsigned(row_bits, 10))
        return "ACT trace parse error";
    if (!f.atLineEnd())
        return "ACT trace parse error (trailing garbage)";
    // The all-ones sentinel is not a real row either.
    if (row_bits >= Row::invalid().value())
        return "ACT trace row out of range";
    row = Row{static_cast<Row::rep>(row_bits)};
    return nullptr;
}

/** parseActLine() for a request-trace record line. */
const char *
parseRequestLine(std::string_view line, TraceRecord &r)
{
    FieldScanner f(line);
    std::uint64_t issue = 0;
    std::uint64_t addr_bits = 0;
    std::string_view rw;
    if (FieldScanner::hasMinusSign(line) || !f.scanUnsigned(issue, 10) ||
        !f.scanUnsigned(addr_bits, 16) ||
        ((rw = f.scanToken()) != "R" && rw != "W") ||
        !f.scanUnsigned(r.coreId, 10))
        return "trace parse error";
    if (!f.atLineEnd())
        return "trace parse error (trailing garbage)";
    r.issue = Cycle{issue};
    r.addr = Addr{addr_bits};
    r.isWrite = rw == "W";
    return nullptr;
}

} // namespace

Result<std::vector<TraceRecord>>
readTrace(std::istream &is)
{
    std::vector<TraceRecord> records;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        // getline hitting EOF on a non-empty buffer means the final
        // record lost its newline — it may have been cut mid-field,
        // so reject it rather than guess.
        if (is.eof() && !line.empty())
            return parseError("trace truncated (final record has no "
                              "newline)",
                              line_no, line);
        if (line.empty() || line[0] == '#')
            continue;
        TraceRecord r;
        if (const char *what = parseRequestLine(line, r))
            return parseError(what, line_no, line);
        records.push_back(r);
    }
    if (records.empty())
        return Error(ErrorCode::Parse,
                     "trace contains no records (empty or "
                     "comment-only input)");
    return records;
}

std::vector<TraceRecord>
captureTrace(const WorkloadSpec &workload,
             const dram::AddressMapper &mapper, Cycle horizon,
             std::uint64_t seed)
{
    std::vector<TraceRecord> records;
    for (unsigned core = 0; core < workload.coreParams.size();
         ++core) {
        SyntheticGenerator gen(workload.coreParams[core], mapper,
                               core, seed + core);
        Cycle now{};
        while (true) {
            const CoreAccess access = gen.next();
            now += access.gap;
            if (now >= horizon)
                break;
            records.push_back(
                {now, access.addr, access.isWrite, core});
        }
    }
    std::sort(records.begin(), records.end(),
              [](const TraceRecord &a, const TraceRecord &b) {
                  return a.issue < b.issue;
              });
    return records;
}

void
writeActTrace(std::ostream &os, const std::vector<Row> &rows)
{
    os << "# graphene ACT trace v1 (one row per line)\n";
    for (Row r : rows)
        os << r << "\n";
}

Result<std::size_t>
ActTraceCursor::read(std::vector<Row> &out, std::size_t max)
{
    if (_eof)
        return std::size_t{0};
    out.reserve(out.size() + max);
    std::size_t appended = 0;
    while (appended < max && std::getline(*_is, _line)) {
        ++_lineNo;
        // getline hitting EOF on a non-empty buffer means the final
        // record lost its newline — it may have been cut mid-field,
        // so reject it rather than guess.
        if (_is->eof() && !_line.empty())
            return parseError("ACT trace truncated (final record has "
                              "no newline)",
                              _lineNo, _line);
        if (_line.empty() || _line[0] == '#')
            continue;
        Row row;
        if (const char *what = parseActLine(_line, row))
            return parseError(what, _lineNo, _line);
        out.push_back(row);
        ++appended;
        ++_records;
    }
    if (appended == max)
        return appended;
    // The loop ended because getline failed. A stream that died
    // mid-read (badbit — disk error, pipe reset) must surface as a
    // typed Io error: treating it as EOF would silently truncate the
    // trace, the exact gap the chunked path exists to close.
    if (_is->bad())
        return Error(ErrorCode::Io,
                     strprintf("ACT trace stream failed after line "
                               "%zu (read error, not end of trace)",
                               _lineNo));
    _eof = true;
    if (_records == 0)
        return Error(ErrorCode::Parse,
                     "ACT trace contains no records (empty or "
                     "comment-only input)");
    return appended;
}

Result<std::vector<Row>>
readActTrace(std::istream &is)
{
    // One grammar, two paths: the whole-file API is the chunked
    // cursor run to exhaustion. Chunks land in a reused buffer so the
    // cursor's per-chunk reserve never defeats `rows`' geometric
    // growth.
    std::vector<Row> rows;
    std::vector<Row> chunk;
    ActTraceCursor cursor(is);
    while (!cursor.atEnd()) {
        chunk.clear();
        Result<std::size_t> got = cursor.read(chunk, 4096);
        if (!got.ok())
            return got.error();
        if (got.value() == 0)
            break;
        rows.insert(rows.end(), chunk.begin(), chunk.end());
    }
    return rows;
}

TracePattern::TracePattern(std::vector<Row> rows)
    : _rows(std::move(rows))
{
    GRAPHENE_CHECK(!_rows.empty(), "trace pattern: empty row stream");
}

std::string
TracePattern::name() const
{
    return "trace-replay";
}

Row
TracePattern::next()
{
    const Row r = _rows[_idx];
    _idx = (_idx + 1) % _rows.size();
    return r;
}

} // namespace workloads
} // namespace graphene
