/**
 * @file
 * Unit tests for the snapshot codec: the io walk's scalar widths
 * (doubles are bit-exact), containers, nested walks, enum range and
 * config-sized length checks, section markers, the snapshot container (magic /
 * version / fingerprint / CRC32C), each structured failure category,
 * and the atomic file helpers. Every corruption mode the durability
 * layer claims to detect is exercised here in isolation.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/serialize.hh"

using namespace memsec;

namespace {

/** Decode expecting a SerializeError of the given category. */
SerializeError
expectDecodeError(const std::string &bytes, const std::string &expected,
                  const std::string &fingerprint = "fp")
{
    try {
        decodeSnapshot(bytes, fingerprint);
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.category, expected) << e.toString();
        return e;
    }
    ADD_FAILURE() << "decodeSnapshot accepted bytes that should fail "
                  << expected;
    return {};
}

} // namespace

TEST(Serialize, ScalarRoundTrip)
{
    const uint8_t u8 = 0xAB;
    const uint32_t u32 = 0xDEADBEEFu;
    const uint64_t u64 = 0x0123456789ABCDEFull;
    const int64_t i64 = -42;
    const std::string text = "hello snapshot";
    const std::string empty;
    Serializer s;
    s.io(u8, u32, u64, i64, true, false, text, empty);
    // Each width follows from the field's type: 1 + 4 + 8 + 8 bytes,
    // two bool bytes, then two u64-length-prefixed strings.
    EXPECT_EQ(s.size(), 1u + 4 + 8 + 8 + 2 + (8 + 14) + 8);

    uint8_t gotU8 = 0;
    uint32_t gotU32 = 0;
    uint64_t gotU64 = 0;
    int64_t gotI64 = 0;
    bool yes = false;
    bool no = true;
    std::string gotText = "stale";
    std::string gotEmpty = "stale";
    Deserializer d(s.data());
    d.io(gotU8, gotU32, gotU64, gotI64, yes, no, gotText, gotEmpty);
    EXPECT_EQ(gotU8, u8);
    EXPECT_EQ(gotU32, u32);
    EXPECT_EQ(gotU64, u64);
    EXPECT_EQ(gotI64, i64);
    EXPECT_TRUE(yes);
    EXPECT_FALSE(no);
    EXPECT_EQ(gotText, text);
    EXPECT_EQ(gotEmpty, "");
    EXPECT_TRUE(d.atEnd());
}

TEST(Serialize, DoublesRoundTripBitExactly)
{
    const double values[] = {0.0,
                             -0.0,
                             1.0,
                             -1.0 / 3.0,
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity()};
    Serializer s;
    for (double v : values)
        s.io(v);
    s.io(std::numeric_limits<double>::quiet_NaN());

    Deserializer d(s.data());
    for (double v : values) {
        double got = 0.0;
        d.io(got);
        EXPECT_EQ(got, v);
        // 0.0 == -0.0 compares true; pin the sign bit too.
        EXPECT_EQ(std::signbit(got), std::signbit(v));
    }
    double nan = 0.0;
    d.io(nan);
    EXPECT_TRUE(std::isnan(nan));
    EXPECT_TRUE(d.atEnd());
}

namespace {

enum class Color : uint8_t
{
    Red,
    Green,
    Blue,
};

constexpr Color
enumLast(Color)
{
    return Color::Blue;
}

/** A nested type with its own walk, as checkpointed classes have. */
struct Point
{
    uint32_t x = 0;
    Color color = Color::Red;
    std::vector<uint64_t> trail;

    template <class Self, class Ar>
    static void io(Self &self, Ar &ar)
    {
        ar.io(self.x, self.color, self.trail);
    }
};

} // namespace

TEST(Serialize, ContainersAndNestedWalksRoundTrip)
{
    std::vector<Point> points(2);
    points[0] = {7, Color::Green, {1, 2, 3}};
    points[1] = {9, Color::Blue, {}};
    std::deque<int64_t> ring = {-1, 0, 1};
    std::map<std::string, uint64_t> counts = {{"a", 1}, {"bb", 2}};
    std::array<uint32_t, 3> fixed = {4, 5, 6};
    Serializer s;
    s.io(points, ring, counts, fixed);

    std::vector<Point> gotPoints(5); // replaced, not appended to
    std::deque<int64_t> gotRing = {42};
    std::map<std::string, uint64_t> gotCounts = {{"stale", 9}};
    std::array<uint32_t, 3> gotFixed{};
    Deserializer d(s.data());
    d.io(gotPoints, gotRing, gotCounts, gotFixed);
    EXPECT_TRUE(d.atEnd());
    ASSERT_EQ(gotPoints.size(), 2u);
    EXPECT_EQ(gotPoints[0].x, 7u);
    EXPECT_EQ(gotPoints[0].color, Color::Green);
    EXPECT_EQ(gotPoints[0].trail, (std::vector<uint64_t>{1, 2, 3}));
    EXPECT_EQ(gotPoints[1].color, Color::Blue);
    EXPECT_TRUE(gotPoints[1].trail.empty());
    EXPECT_EQ(gotRing, ring);
    EXPECT_EQ(gotCounts, counts);
    EXPECT_EQ(gotFixed, fixed);
}

TEST(Serialize, EnumByteBeyondLastEnumeratorIsCorrupt)
{
    const std::string bytes("\x03", 1);
    Deserializer d(bytes);
    Color c = Color::Red;
    try {
        d.io(c);
        FAIL() << "enum byte 3 accepted";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.category, "snapshot-corrupt");
    }
}

TEST(Serialize, ConfigSizedContainerLengthChecked)
{
    const std::vector<uint32_t> three = {1, 2, 3};
    Serializer s;
    s.sized(three, "lane count mismatch");

    std::vector<uint32_t> same(3);
    Deserializer ok(s.data());
    ok.sized(same, "lane count mismatch");
    EXPECT_EQ(same, three);

    std::vector<uint32_t> four(4);
    Deserializer bad(s.data());
    try {
        bad.sized(four, "lane count mismatch");
        FAIL() << "length mismatch accepted";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.category, "snapshot-corrupt");
        EXPECT_EQ(e.message, "lane count mismatch");
    }
}

TEST(Serialize, AsWidthOverridesTheFieldType)
{
    int offset = -5;
    Serializer s;
    s.io(as<int64_t>(offset));
    EXPECT_EQ(s.size(), 8u);

    int got = 0;
    Deserializer d(s.data());
    d.io(as<int64_t>(got));
    EXPECT_EQ(got, -5);
}

TEST(Serialize, SectionMarkerVerifies)
{
    Serializer s;
    s.section("dram");
    s.io(uint64_t{7});

    Deserializer ok(s.data());
    ok.section("dram");
    uint64_t v = 0;
    ok.io(v);
    EXPECT_EQ(v, 7u);

    Deserializer bad(s.data());
    try {
        bad.section("core");
        FAIL() << "mismatched section accepted";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.category, "snapshot-corrupt");
        EXPECT_EQ(e.offset, 0u);
    }
}

TEST(Serialize, TruncatedInputReportsOffset)
{
    Serializer s;
    s.io(uint64_t{1}, uint64_t{2});
    const std::string cut = s.data().substr(0, 11);

    Deserializer d(cut);
    uint64_t v = 0;
    d.io(v);
    EXPECT_EQ(v, 1u);
    try {
        d.io(v);
        FAIL() << "read past the end";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.category, "snapshot-truncate");
        EXPECT_EQ(e.offset, 8u);
    }
}

TEST(Serialize, StringLengthBeyondInputIsTruncate)
{
    Serializer s;
    s.io(std::string("abcdef"));
    const std::string cut = s.data().substr(0, 10);
    Deserializer d(cut);
    std::string got;
    try {
        d.io(got);
        FAIL() << "oversized string length accepted";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.category, "snapshot-truncate");
    }
}

TEST(Serialize, BadBoolByteIsCorrupt)
{
    const std::string bytes("\x02", 1);
    Deserializer d(bytes);
    bool b = false;
    try {
        d.io(b);
        FAIL() << "bool byte 2 accepted";
    } catch (const SerializeError &e) {
        EXPECT_EQ(e.category, "snapshot-corrupt");
    }
}

TEST(Serialize, Crc32cKnownVector)
{
    // The canonical CRC-32C check value (RFC 3720 appendix test).
    EXPECT_EQ(crc32c(std::string_view("123456789")), 0xE3069283u);
    EXPECT_EQ(crc32c(std::string_view("")), 0u);
    // Seed chaining: crc(a+b) == crc(b, seed=crc(a)).
    EXPECT_EQ(crc32c("56789", 5, crc32c("1234", 4)),
              crc32c(std::string_view("123456789")));
}

TEST(Serialize, SnapshotContainerRoundTrip)
{
    const std::string payload("pay\x00load\x01\xFF bytes", 16);
    const std::string bytes = encodeSnapshot("fp", payload);
    EXPECT_EQ(bytes.compare(0, 8, kSnapshotMagic, 8), 0);
    EXPECT_EQ(decodeSnapshot(bytes, "fp"), payload);
    // Empty expected fingerprint skips the staleness check.
    EXPECT_EQ(decodeSnapshot(bytes, ""), payload);
}

TEST(Serialize, ShortMagicIsTruncate)
{
    expectDecodeError("MSEC", "snapshot-truncate");
}

TEST(Serialize, BadMagicIsCorrupt)
{
    std::string bytes = encodeSnapshot("fp", "payload");
    bytes[0] ^= 0x20;
    expectDecodeError(bytes, "snapshot-corrupt");
}

TEST(Serialize, VersionSkewIsVersionError)
{
    std::string bytes = encodeSnapshot("fp", "payload");
    bytes[8] = static_cast<char>(kSnapshotVersion + 1);
    const SerializeError e =
        expectDecodeError(bytes, "snapshot-version");
    EXPECT_EQ(e.offset, 8u);
}

TEST(Serialize, FingerprintMismatchIsStale)
{
    const std::string bytes = encodeSnapshot("fp-old", "payload");
    expectDecodeError(bytes, "snapshot-stale", "fp-new");
}

TEST(Serialize, TruncatedPayloadDetected)
{
    const std::string bytes = encodeSnapshot("fp", "a longer payload");
    expectDecodeError(bytes.substr(0, bytes.size() - 3),
                      "snapshot-truncate");
}

TEST(Serialize, TrailingBytesDetected)
{
    expectDecodeError(encodeSnapshot("fp", "payload") + "x",
                      "snapshot-corrupt");
}

TEST(Serialize, PayloadBitFlipCaughtByCrc)
{
    std::string bytes = encodeSnapshot("fp", "a payload to damage");
    bytes[bytes.size() - 2] ^= 0x01;
    expectDecodeError(bytes, "snapshot-corrupt");
}

TEST(Serialize, AtomicFileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "memsec-serialize-file-test.bin";
    const std::string bytes("binary \x00 content", 16);
    ASSERT_TRUE(writeFileAtomic(path, bytes));
    std::string got;
    ASSERT_TRUE(readFileBytes(path, got));
    EXPECT_EQ(got, bytes);
    // No .tmp litter after a successful rename.
    std::string tmp;
    EXPECT_FALSE(readFileBytes(path + ".tmp", tmp));
    std::remove(path.c_str());
}

TEST(Serialize, ReadMissingFileReturnsFalse)
{
    std::string out;
    EXPECT_FALSE(readFileBytes(
        ::testing::TempDir() + "memsec-no-such-file.bin", out));
}
