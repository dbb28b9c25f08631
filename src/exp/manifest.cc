#include "exp/manifest.hh"

#include <filesystem>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "ckpt/io.hh"
#include "exp/fingerprint.hh"

namespace graphene {
namespace exp {

namespace fs = std::filesystem;

Manifest::Manifest(std::string dir, std::string version_tag)
    : _dir(std::move(dir)), _versionTag(std::move(version_tag))
{
}

std::string
Manifest::pathFor(const std::string &dir)
{
    return (fs::path(dir) / "manifest.gckp").string();
}

std::uint64_t
Manifest::configFingerprint() const
{
    Fingerprint fp;
    fp.field("manifest-version-tag", _versionTag);
    return fp.digest();
}

Manifest::LoadReport
Manifest::load()
{
    LoadReport report;
    _records.clear();

    const std::string newest = pathFor(_dir);
    const std::string candidates[] = {newest, newest + ".prev"};
    for (const std::string &path : candidates) {
        const Result<ckpt::Blob> blob =
            ckpt::loadFile(path, configFingerprint());
        if (!blob.ok()) {
            if (blob.error().code() != ErrorCode::Io ||
                fs::exists(path))
                report.notes.push_back(
                    path + ": " + blob.error().describe());
            continue;
        }
        ckpt::Reader r(blob.value().payload);
        std::map<std::uint64_t, std::string> records;
        const std::uint64_t count = r.boundedCount();
        for (std::uint64_t i = 0; i < count && !r.failed(); ++i) {
            const std::uint64_t fp = r.u64();
            records[fp] = r.str();
        }
        if (!r.finish().ok()) {
            report.notes.push_back(
                path + ": " + r.finish().error().describe());
            continue;
        }
        _records = std::move(records);
        report.cells = _records.size();
        report.source = path;
        return report;
    }
    return report;
}

std::optional<CellResult>
Manifest::lookup(const CellKey &key) const
{
    const auto it = _records.find(key.fingerprint);
    if (it == _records.end())
        return std::nullopt;
    CellKey stored_key;
    CellResult result;
    if (!parseCellRecordLine(it->second, stored_key, result))
        return std::nullopt; // unparseable record: recompute
    if (stored_key.fingerprint != key.fingerprint)
        return std::nullopt;
    return result;
}

void
Manifest::record(const CellKey &key, const CellResult &result)
{
    _records[key.fingerprint] = cellRecordLine(key, result);
}

Result<void>
Manifest::persist()
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    if (ec)
        return Error(ErrorCode::Io,
                     "manifest: cannot create directory '" + _dir +
                         "': " + ec.message());

    ckpt::Writer w;
    w.u64(_records.size());
    for (const auto &[fp, line] : _records) {
        w.u64(fp);
        w.str(line);
    }

    // Rotate before writing: if the process dies mid-save, the
    // previous complete manifest survives as `.prev` and load()
    // falls back to it.
    const std::string path = pathFor(_dir);
    if (fs::exists(path))
        fs::rename(path, path + ".prev", ec); // best-effort rotation

    return ckpt::saveFile(path, configFingerprint(), w.data());
}

} // namespace exp
} // namespace graphene
