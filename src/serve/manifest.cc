#include "serve/manifest.hh"

#include <filesystem>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "ckpt/io.hh"

namespace graphene {
namespace serve {

namespace fs = std::filesystem;

namespace {

/** Bump when the entry layout changes: old manifests then reject as
 *  CkptConfigMismatch instead of misdecoding. */
constexpr const char *kVersionTag = "graphene-serve-manifest-v1";

} // namespace

Manifest::Manifest(std::string dir) : _dir(std::move(dir)) {}

std::string
Manifest::pathFor(const std::string &dir)
{
    return (fs::path(dir) / "serve_manifest.gckp").string();
}

std::uint64_t
Manifest::configFingerprint()
{
    ckpt::Writer enc;
    enc.str(kVersionTag);
    return ckpt::fnv1a(enc.data().data(), enc.size());
}

std::vector<std::uint8_t>
Manifest::encodePayload(const std::vector<Entry> &entries)
{
    // Serialize sorted by id so identical rosters are identical
    // bytes whatever order sessions were recorded in.
    std::map<std::string, const Entry *> sorted;
    for (const Entry &entry : entries)
        sorted[entry.spec.id] = &entry;
    ckpt::Writer w;
    w.u64(sorted.size());
    for (const auto &[id, entry] : sorted) {
        entry->spec.save(w);
        w.u8(static_cast<std::uint8_t>(entry->state));
        w.str(entry->failure);
    }
    return w.data();
}

Result<std::vector<Manifest::Entry>>
Manifest::decodePayload(const std::vector<std::uint8_t> &payload)
{
    ckpt::Reader r(payload);
    std::vector<Entry> entries;
    const std::uint64_t count = r.boundedCount();
    for (std::uint64_t i = 0; i < count && !r.failed(); ++i) {
        Entry entry;
        entry.spec = SessionSpec::load(r);
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(Session::State::Failed))
            r.fail();
        else
            entry.state = static_cast<Session::State>(state);
        entry.failure = r.str();
        entries.push_back(std::move(entry));
    }
    const Result<void> fin = r.finish();
    if (!fin.ok())
        return fin.error();
    return entries;
}

Manifest::LoadReport
Manifest::load()
{
    LoadReport report;
    _entries.clear();

    const std::string newest = pathFor(_dir);
    const std::string candidates[] = {newest, newest + ".prev"};
    for (const std::string &path : candidates) {
        const Result<ckpt::Blob> blob =
            ckpt::loadFile(path, configFingerprint());
        if (!blob.ok()) {
            // A simply-absent candidate is not worth a note; a
            // present-but-rejected one is.
            if (blob.error().code() != ErrorCode::Io ||
                fs::exists(path))
                report.notes.push_back(
                    path + ": " + blob.error().describe());
            continue;
        }
        Result<std::vector<Entry>> decoded =
            decodePayload(blob.value().payload);
        if (!decoded.ok()) {
            report.notes.push_back(
                path + ": " + decoded.error().describe());
            continue;
        }
        for (Entry &entry : decoded.value())
            _entries[entry.spec.id] = std::move(entry);
        report.sessions = _entries.size();
        report.source = path;
        return report;
    }
    return report;
}

void
Manifest::record(const Entry &entry)
{
    _entries[entry.spec.id] = entry;
}

Result<void>
Manifest::persist()
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    if (ec)
        return Error(ErrorCode::Io,
                     "serve manifest: cannot create directory '" +
                         _dir + "': " + ec.message());

    std::vector<Entry> entries;
    entries.reserve(_entries.size());
    for (const auto &[id, entry] : _entries)
        entries.push_back(entry);

    // Rotate before writing, same discipline as exp::Manifest: a
    // death mid-save leaves `.prev` decodable.
    const std::string path = pathFor(_dir);
    if (fs::exists(path))
        fs::rename(path, path + ".prev", ec); // best-effort rotation

    return ckpt::saveFile(path, configFingerprint(),
                          encodePayload(entries));
}

} // namespace serve
} // namespace graphene
