/**
 * @file
 * The versioned, fingerprinted checkpoint container format.
 *
 * A checkpoint artifact is a fixed 40-byte header followed by an
 * opaque payload (DESIGN.md §14):
 *
 *   offset  size  field
 *        0     4  magic "GCKP"
 *        4     4  format version (u32, little-endian)
 *        8     8  config fingerprint (exp::Fingerprint digest of the
 *                 producing configuration, passed in as a raw u64 —
 *                 ckpt sits below exp in the layer DAG)
 *       16     8  payload length in bytes
 *       24     8  payload checksum (FNV-1a over the payload)
 *       32     8  header checksum (FNV-1a over bytes 0..31)
 *       40     -  payload (ckpt::Writer stream)
 *
 * decode() validates in a fixed order so every corruption class maps
 * to its own ErrorCode, checked by the corrupt corpus under
 * tests/data/ckpt/:
 *
 *   1. size < 40                     -> CkptTruncated
 *   2. magic mismatch                -> CkptBadHeader
 *   3. header checksum mismatch      -> CkptBadHeader
 *   4. unsupported format version    -> CkptVersionSkew
 *   5. size < 40 + payload length    -> CkptTruncated
 *   6. payload checksum mismatch     -> CkptBadPayload
 *   7. config fingerprint mismatch   -> CkptConfigMismatch
 *
 * Version skew is only diagnosable on an *intact* header (steps 2-3
 * run first); a version-skew corpus file therefore carries a valid,
 * recomputed header checksum so it fails step 4 and nothing else.
 *
 * saveFile() writes atomically: the bytes go to a tmp file next to
 * the target, the tmp file is fsynced, then renamed over the target.
 * rename() is atomic within a directory, so a crash mid-save leaves
 * either the previous artifact or none, never a torn one.
 */

#ifndef CKPT_CHECKPOINT_HH
#define CKPT_CHECKPOINT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/io.hh"
#include "common/error.hh"

namespace graphene {
namespace ckpt {

/** Current container format version (bump on layout changes). */
constexpr std::uint32_t kFormatVersion = 1;

/** Size of the fixed header preceding the payload. */
constexpr std::size_t kHeaderSize = 40;

/** The four magic bytes opening every checkpoint artifact. */
constexpr char kMagic[4] = {'G', 'C', 'K', 'P'};

/** FNV-1a over a byte run (the checksum used throughout). */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t size);

/** A decoded checkpoint: header fields plus the raw payload. */
struct Blob
{
    std::uint32_t version = kFormatVersion;
    std::uint64_t configFingerprint = 0;
    std::vector<std::uint8_t> payload;
};

/**
 * Frame @p payload into a complete artifact byte string: one
 * allocation, the payload appended once, the result moved out.
 */
std::vector<std::uint8_t>
encode(std::uint64_t config_fingerprint,
       const std::vector<std::uint8_t> &payload);

/**
 * Validate and unwrap an artifact. With @p expected_config set, a
 * fingerprint mismatch is rejected (CkptConfigMismatch); pass
 * std::nullopt to accept any producer (inspection tools).
 */
Result<Blob> decode(const std::vector<std::uint8_t> &bytes,
                    std::optional<std::uint64_t> expected_config);

/**
 * decode()'s validation without its payload copy: a Reader over the
 * payload where it lies in @p bytes, which must outlive the Reader.
 */
Result<Reader> payloadReader(const std::vector<std::uint8_t> &bytes,
                             std::optional<std::uint64_t> expected_config);

/**
 * Write @p bytes to @p path atomically: unique tmp sibling, fsync,
 * rename. On any failure the destination is untouched.
 */
Result<void> atomicWriteFile(const std::string &path,
                             const std::vector<std::uint8_t> &bytes);

/** encode() + atomicWriteFile(). */
Result<void> saveFile(const std::string &path,
                      std::uint64_t config_fingerprint,
                      const std::vector<std::uint8_t> &payload);

/**
 * Read @p path with one sized read and decode() it, the header
 * stripped in place rather than the payload copied. Io error when the
 * file cannot be opened or read or is not a regular file.
 */
Result<Blob> loadFile(const std::string &path,
                      std::optional<std::uint64_t> expected_config);

} // namespace ckpt
} // namespace graphene

#endif // CKPT_CHECKPOINT_HH
