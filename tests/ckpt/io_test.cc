/**
 * @file
 * Tests for the checkpoint serialization primitives: round-trips for
 * every encoded type, the sticky-failure bounds contract, and the
 * finish() terminal check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "ckpt/io.hh"

namespace graphene {
namespace ckpt {
namespace {

TEST(CkptIo, RoundTripsEveryType)
{
    Writer w;
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.f64(3.141592653589793);
    w.f64(-0.0);
    w.boolean(true);
    w.boolean(false);
    w.str("graphene");
    w.str("");

    Reader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.f64(), 3.141592653589793);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero)) << "bit pattern not preserved";
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "graphene");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.finish().ok());
}

TEST(CkptIo, WriterEmitsLiteralLittleEndianBytes)
{
    // The checkpoint encoding pinned byte for byte: fixed-width
    // little-endian integers, doubles as their IEEE-754 bits, bools as
    // one byte, strings as a u64 length then the raw bytes.
    Writer w;
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.f64(1.0);
    w.f64(-2.5);
    w.boolean(true);
    w.boolean(false);
    w.str("GC");
    const std::vector<std::uint8_t> expected = {
        0xab,                                           // u8
        0xef, 0xbe, 0xad, 0xde,                         // u32
        0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, // u64
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // f64 1.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0, // f64 -2.5
        0x01, 0x00,                                     // bools
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // str length
        'G',  'C',                                      // str bytes
    };
    EXPECT_EQ(w.data(), expected);
    EXPECT_EQ(w.size(), expected.size());
}

TEST(CkptIo, ReaderDecodesLiteralBytesAndLatchesShortReads)
{
    const std::vector<std::uint8_t> bytes = {
        0x78, 0x56, 0x34, 0x12,                         // u32
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // u64
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0, // f64 -2.5
        0x01,                                           // bool
        0xaa, 0xbb, 0xcc,                               // 3 of 4 bytes
    };
    Reader r(bytes);
    EXPECT_EQ(r.u32(), 0x12345678u);
    EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
    EXPECT_EQ(r.f64(), -2.5);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.remaining(), 3u);
    EXPECT_EQ(r.u32(), 0u) << "a short read yields zero";
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.remaining(), 3u) << "a short read consumes nothing";
    EXPECT_EQ(r.u8(), 0u) << "the failure stays latched";
    EXPECT_FALSE(r.finish().ok());
}

TEST(CkptIo, TakeMovesTheBufferOut)
{
    Writer w;
    w.u32(0x01020304u);
    w.u8(5);
    const std::vector<std::uint8_t> bytes = w.take();
    EXPECT_EQ(bytes, (std::vector<std::uint8_t>{4, 3, 2, 1, 5}));
    Reader r(bytes);
    EXPECT_EQ(r.u32(), 0x01020304u);
    EXPECT_EQ(r.u8(), 5u);
    EXPECT_TRUE(r.finish().ok());
}

TEST(CkptIo, NanRoundTripsBitExactly)
{
    Writer w;
    w.f64(std::numeric_limits<double>::quiet_NaN());
    Reader r(w.data());
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_TRUE(r.finish().ok());
}

TEST(CkptIo, ShortReadLatchesAndReturnsZeroes)
{
    Writer w;
    w.u32(7);
    Reader r(w.data());
    EXPECT_EQ(r.u64(), 0u) << "short read must yield a zero value";
    EXPECT_TRUE(r.failed());
    // Every later read stays harmless and zero-valued.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.str(), "");
    const Result<void> fin = r.finish();
    ASSERT_FALSE(fin.ok());
    EXPECT_EQ(fin.error().code(), ErrorCode::CkptTruncated);
}

TEST(CkptIo, HugeStringLengthCannotIndexOutOfBounds)
{
    Writer w;
    w.u64(std::numeric_limits<std::uint64_t>::max());
    w.u8(1);
    Reader r(w.data());
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.failed());
    EXPECT_FALSE(r.finish().ok());
}

TEST(CkptIo, TrailingBytesFailFinish)
{
    Writer w;
    w.u64(1);
    w.u64(2);
    Reader r(w.data());
    EXPECT_EQ(r.u64(), 1u);
    const Result<void> fin = r.finish();
    ASSERT_FALSE(fin.ok());
    EXPECT_EQ(fin.error().code(), ErrorCode::Internal);
}

TEST(CkptIo, ExplicitFailLatches)
{
    Writer w;
    w.u64(42);
    Reader r(w.data());
    EXPECT_EQ(r.u64(), 42u);
    r.fail(); // restore-side validation rejected a value
    const Result<void> fin = r.finish();
    ASSERT_FALSE(fin.ok());
    EXPECT_EQ(fin.error().code(), ErrorCode::CkptTruncated);
}

} // namespace
} // namespace ckpt
} // namespace graphene
