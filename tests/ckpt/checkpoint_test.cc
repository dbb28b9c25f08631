/**
 * @file
 * Tests for the checkpoint container: encode/decode round-trip, the
 * fixed validation order mapping each corruption class to its own
 * ErrorCode, and the atomic file path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "ckpt/checkpoint.hh"

namespace graphene {
namespace ckpt {
namespace {

std::vector<std::uint8_t>
samplePayload()
{
    std::vector<std::uint8_t> p;
    for (int i = 0; i < 64; ++i)
        p.push_back(static_cast<std::uint8_t>(i * 7));
    return p;
}

constexpr std::uint64_t kFp = 0x1122334455667788ULL;

TEST(Checkpoint, RoundTrip)
{
    const auto bytes = encode(kFp, samplePayload());
    const auto blob = decode(bytes, kFp);
    ASSERT_TRUE(blob.ok()) << blob.error().describe();
    EXPECT_EQ(blob.value().version, kFormatVersion);
    EXPECT_EQ(blob.value().configFingerprint, kFp);
    EXPECT_EQ(blob.value().payload, samplePayload());
}

TEST(Checkpoint, EncodeEmitsLiteralHeader)
{
    // The 40-byte container header pinned byte for byte: magic,
    // version 1, fingerprint, payload length, FNV-1a of the payload,
    // FNV-1a of the 32 bytes before it; then the payload verbatim.
    const std::vector<std::uint8_t> payload = {'g', 'r', 'a', 'p',
                                               'h', 'e', 'n', 'e'};
    const std::vector<std::uint8_t> header = {
        0x47, 0x43, 0x4b, 0x50, 0x01, 0x00, 0x00, 0x00,
        0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,
        0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x29, 0xa5, 0xa3, 0x79, 0xbc, 0xf6, 0xb6, 0x44,
        0x71, 0x9d, 0x4f, 0x9d, 0xf9, 0x4d, 0xbe, 0xf5,
    };
    ASSERT_EQ(header.size(), kHeaderSize);
    std::vector<std::uint8_t> expected = header;
    expected.insert(expected.end(), payload.begin(), payload.end());
    EXPECT_EQ(encode(0x0123456789abcdefULL, payload), expected);
}

TEST(Checkpoint, AnyProducerAcceptedWithoutExpectedFingerprint)
{
    const auto bytes = encode(kFp, samplePayload());
    EXPECT_TRUE(decode(bytes, std::nullopt).ok());
}

TEST(Checkpoint, TruncationBelowHeaderIsTyped)
{
    auto bytes = encode(kFp, samplePayload());
    bytes.resize(kHeaderSize - 1);
    const auto blob = decode(bytes, kFp);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::CkptTruncated);
}

TEST(Checkpoint, TruncatedPayloadIsTyped)
{
    auto bytes = encode(kFp, samplePayload());
    bytes.resize(bytes.size() - 5);
    const auto blob = decode(bytes, kFp);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::CkptTruncated);
}

TEST(Checkpoint, BadMagicIsTyped)
{
    auto bytes = encode(kFp, samplePayload());
    bytes[0] ^= 0x01;
    const auto blob = decode(bytes, kFp);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::CkptBadHeader);
}

TEST(Checkpoint, HeaderBitflipIsTyped)
{
    auto bytes = encode(kFp, samplePayload());
    bytes[9] ^= 0x40; // inside the config fingerprint field
    const auto blob = decode(bytes, kFp);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::CkptBadHeader);
}

TEST(Checkpoint, PayloadBitflipIsTyped)
{
    auto bytes = encode(kFp, samplePayload());
    bytes[kHeaderSize + 3] ^= 0x40;
    const auto blob = decode(bytes, kFp);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::CkptBadPayload);
}

TEST(Checkpoint, TrailingGarbageIsTyped)
{
    auto bytes = encode(kFp, samplePayload());
    bytes.push_back(0xde);
    const auto blob = decode(bytes, kFp);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::CkptBadPayload);
}

TEST(Checkpoint, ConfigMismatchIsTyped)
{
    const auto bytes = encode(kFp, samplePayload());
    const auto blob = decode(bytes, kFp + 1);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::CkptConfigMismatch);
}

TEST(Checkpoint, SaveLoadFileRoundTrips)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "graphene_ckpt_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "round_trip.gckp").string();

    ASSERT_TRUE(saveFile(path, kFp, samplePayload()).ok());
    const auto blob = loadFile(path, kFp);
    ASSERT_TRUE(blob.ok()) << blob.error().describe();
    EXPECT_EQ(blob.value().payload, samplePayload());

    // Atomic discipline: no tmp siblings survive a successful save.
    unsigned siblings = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().filename().string().find("round_trip") == 0)
            ++siblings;
    EXPECT_EQ(siblings, 1u) << "tmp file left behind";

    // Overwrite in place keeps the artifact valid.
    auto other = samplePayload();
    other.push_back(0x5a);
    ASSERT_TRUE(saveFile(path, kFp, other).ok());
    const auto blob2 = loadFile(path, kFp);
    ASSERT_TRUE(blob2.ok());
    EXPECT_EQ(blob2.value().payload, other);

    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, LoadMissingFileIsIoError)
{
    const auto blob =
        loadFile("/nonexistent/graphene/ckpt.gckp", std::nullopt);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::Io);
}

TEST(Checkpoint, LoadDirectoryIsIoError)
{
    const auto blob = loadFile(
        std::filesystem::temp_directory_path().string(), std::nullopt);
    ASSERT_FALSE(blob.ok());
    EXPECT_EQ(blob.error().code(), ErrorCode::Io);
}

TEST(Checkpoint, PayloadReaderReadsInPlace)
{
    const auto bytes = encode(kFp, samplePayload());
    Result<Reader> r = payloadReader(bytes, kFp);
    ASSERT_TRUE(r.ok()) << r.error().describe();
    EXPECT_EQ(r.value().remaining(), samplePayload().size());
    for (std::uint8_t b : samplePayload())
        EXPECT_EQ(r.value().u8(), b);
    EXPECT_TRUE(r.value().finish().ok());
}

TEST(Checkpoint, LoadPathsAgreeWithDecodeOnTheCorruptCorpus)
{
    // loadFile() and payloadReader() share decode()'s ordered
    // validation: every corpus file gets decode()'s verdict from each.
    const std::filesystem::path dir =
        std::filesystem::path(GRAPHENE_TEST_DATA_DIR) / "ckpt";
    constexpr std::uint64_t kCorpusFp = 0xC0FFEE0DDEADBEEFULL;
    std::size_t seen = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".gckp")
            continue;
        ++seen;
        std::ifstream is(entry.path(), std::ios::binary);
        const std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(is)),
            std::istreambuf_iterator<char>());
        const std::string name = entry.path().filename().string();
        const auto decoded = decode(bytes, kCorpusFp);
        const auto loaded = loadFile(entry.path().string(), kCorpusFp);
        const auto reader = payloadReader(bytes, kCorpusFp);
        ASSERT_EQ(loaded.ok(), decoded.ok()) << name;
        ASSERT_EQ(reader.ok(), decoded.ok()) << name;
        if (decoded.ok()) {
            EXPECT_EQ(loaded.value().payload, decoded.value().payload);
            EXPECT_EQ(reader.value().remaining(),
                      decoded.value().payload.size());
        } else {
            EXPECT_EQ(loaded.error().code(), decoded.error().code())
                << name;
            EXPECT_EQ(loaded.error().message(),
                      decoded.error().message())
                << name;
            EXPECT_EQ(reader.error().code(), decoded.error().code())
                << name;
        }
    }
    EXPECT_GE(seen, 9u);
}

TEST(Checkpoint, SaveIntoMissingDirectoryIsIoError)
{
    const auto r = atomicWriteFile(
        "/nonexistent/graphene/dir/ckpt.gckp", samplePayload());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Io);
}

} // namespace
} // namespace ckpt
} // namespace graphene
