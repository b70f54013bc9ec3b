#include <gtest/gtest.h>

#include <fstream>
#include <utility>

#include "harness/experiment.hh"
#include "sim/config.hh"

using namespace memsec;

TEST(Config, SetGetRoundTrip)
{
    Config c;
    c.set("s", "hello").set("i", int64_t{-5}).set("u", uint64_t{7});
    c.set("d", 2.5).set("b", true);
    EXPECT_EQ(c.getString("s"), "hello");
    EXPECT_EQ(c.getInt("i"), -5);
    EXPECT_EQ(c.getUint("u"), 7u);
    EXPECT_DOUBLE_EQ(c.getDouble("d"), 2.5);
    EXPECT_TRUE(c.getBool("b"));
}

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_EQ(c.getString("nope", "dflt"), "dflt");
    EXPECT_EQ(c.getInt("nope", 42), 42);
    EXPECT_EQ(c.getUint("nope", 9u), 9u);
    EXPECT_DOUBLE_EQ(c.getDouble("nope", 1.5), 1.5);
    EXPECT_TRUE(c.getBool("nope", true));
}

TEST(Config, HasAndErase)
{
    Config c;
    c.set("k", 1);
    EXPECT_TRUE(c.has("k"));
    c.erase("k");
    EXPECT_FALSE(c.has("k"));
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *v : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
        c.set("b", v);
        EXPECT_TRUE(c.getBool("b")) << v;
    }
    for (const char *v : {"false", "0", "no", "off", "False"}) {
        c.set("b", v);
        EXPECT_FALSE(c.getBool("b")) << v;
    }
}

TEST(Config, MergeOverwrites)
{
    Config a;
    a.set("x", 1).set("y", 2);
    Config b;
    b.set("y", 3).set("z", 4);
    a.merge(b);
    EXPECT_EQ(a.getInt("x"), 1);
    EXPECT_EQ(a.getInt("y"), 3);
    EXPECT_EQ(a.getInt("z"), 4);
}

TEST(Config, ParseIniBasics)
{
    const Config c = Config::parseIni(
        "# comment\n"
        "top = 1\n"
        "[dram]\n"
        "ranks = 8  ; trailing comment\n"
        "banks = 8\n"
        "[core]\n"
        "rob = 64\n");
    EXPECT_EQ(c.getInt("top"), 1);
    EXPECT_EQ(c.getInt("dram.ranks"), 8);
    EXPECT_EQ(c.getInt("dram.banks"), 8);
    EXPECT_EQ(c.getInt("core.rob"), 64);
}

TEST(Config, ParseIniMalformedLineFatal)
{
    EXPECT_EXIT(Config::parseIni("this is not a kv line\n"),
                ::testing::ExitedWithCode(1), "expected");
}

TEST(Config, NonNumericValueFatal)
{
    Config c;
    c.set("k", "abc");
    EXPECT_EXIT(c.getInt("k"), ::testing::ExitedWithCode(1),
                "non-integer");
    // strtoull would read "-1" as 2^64 - 1, and out-of-range literals
    // saturate; both must be rejected, not silently clamped.
    c.set("k", "-1");
    EXPECT_EXIT(c.getUint("k"), ::testing::ExitedWithCode(1),
                "non-integer");
    c.set("k", "18446744073709551616");
    EXPECT_EXIT(c.getUint("k"), ::testing::ExitedWithCode(1),
                "non-integer");
    c.set("k", "9223372036854775808");
    EXPECT_EXIT(c.getInt("k"), ::testing::ExitedWithCode(1),
                "non-integer");
    // strtod parses all three, but none is a usable number.
    for (const char *v : {"nan", "inf", "1e999"}) {
        c.set("k", v);
        EXPECT_EXIT(c.getDouble("k"), ::testing::ExitedWithCode(1),
                    "non-numeric")
            << v;
    }
}

TEST(Config, TryParseIniReportsFileAndLine)
{
    Config out;
    ConfigParseError err;
    EXPECT_FALSE(Config::tryParseIni("a = 1\n"
                                     "b = 2\n"
                                     "garbage without equals\n",
                                     out, err, "sys.ini"));
    EXPECT_EQ(err.file, "sys.ini");
    EXPECT_EQ(err.line, 3);
    EXPECT_NE(err.message.find("expected 'key = value'"),
              std::string::npos);
    // "a = 1\n" and "b = 2\n" are 6 bytes each.
    EXPECT_EQ(err.byteOffset, 12u);
    EXPECT_EQ(err.toString(), "sys.ini:3 (byte 12): " + err.message);
}

TEST(Config, TryParseIniUnterminatedSection)
{
    Config out;
    ConfigParseError err;
    EXPECT_FALSE(Config::tryParseIni("[dram\nranks = 8\n", out, err));
    EXPECT_EQ(err.line, 1);
    EXPECT_NE(err.message.find("unterminated section"),
              std::string::npos);
}

TEST(Config, TryParseIniEmptyKey)
{
    Config out;
    ConfigParseError err;
    EXPECT_FALSE(Config::tryParseIni("= 5\n", out, err));
    EXPECT_EQ(err.line, 1);
    EXPECT_NE(err.message.find("empty key"), std::string::npos);
}

TEST(Config, TryParseIniSuccessLeavesErrorUntouched)
{
    Config out;
    ConfigParseError err;
    ASSERT_TRUE(Config::tryParseIni("x = 1\n", out, err));
    EXPECT_EQ(out.getInt("x"), 1);
    EXPECT_EQ(err.line, 0);
}

TEST(Config, TryLoadFileMissingFile)
{
    Config out;
    ConfigParseError err;
    EXPECT_FALSE(Config::tryLoadFile("/nonexistent/nope.ini", out, err));
    EXPECT_EQ(err.line, 0);
    EXPECT_NE(err.message.find("cannot open"), std::string::npos);
    // No "line 0" noise when the failure isn't tied to a line.
    EXPECT_EQ(err.toString().find(":0:"), std::string::npos);
}

TEST(Config, KeysSorted)
{
    Config c;
    c.set("b", 1).set("a", 2).set("c", 3);
    const auto k = c.keys();
    ASSERT_EQ(k.size(), 3u);
    EXPECT_EQ(k[0], "a");
    EXPECT_EQ(k[2], "c");
}

TEST(Config, ToStringRoundTrip)
{
    Config c;
    c.set("x", 5).set("name", "v");
    const Config c2 = Config::parseIni(c.toString());
    EXPECT_EQ(c2.getInt("x"), 5);
    EXPECT_EQ(c2.getString("name"), "v");
}

TEST(Config, LoadFileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "memsec_cfg.ini";
    {
        std::ofstream out(path);
        out << "cores = 32\n[dram]\nchannels = 4\n";
    }
    const Config c = Config::loadFile(path);
    EXPECT_EQ(c.getUint("cores"), 32u);
    EXPECT_EQ(c.getUint("dram.channels"), 4u);
}

TEST(Config, LoadMissingFileFatal)
{
    EXPECT_EXIT(Config::loadFile("/nonexistent/nope.ini"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(Config, ShippedTargetConfigParses)
{
    // The example config shipped in the repository must stay valid.
    const Config c =
        Config::loadFile(std::string(MEMSEC_SOURCE_DIR) +
                         "/examples/configs/target32.ini");
    EXPECT_EQ(c.getUint("cores"), 32u);
    EXPECT_EQ(c.getUint("dram.channels"), 4u);
    EXPECT_GT(c.getUint("sim.measure"), 0u);
}

TEST(Config, DocConsistency)
{
    // docs/CONFIG.md claims to catalogue every knob. Hold it to that:
    // each key defaultConfig() sets, and each scheme name
    // schemeConfig() accepts, must appear in the document (as
    // `backtick-quoted` inline code). Keys only ever read with an
    // inline fallback are not enumerable here, but the defaults cover
    // every subsystem switch a user must know about — including the
    // execution-mode keys (sim.fastforward, sim.shards) the perf
    // architecture depends on.
    std::ifstream in(std::string(MEMSEC_SOURCE_DIR) +
                     "/docs/CONFIG.md");
    ASSERT_TRUE(in.is_open()) << "docs/CONFIG.md missing";
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

    const Config defaults = harness::defaultConfig();
    for (const std::string &key : defaults.keys()) {
        EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
            << "config key '" << key
            << "' set by defaultConfig() is not documented in "
               "docs/CONFIG.md";
    }
    for (const std::string &scheme : harness::allSchemes()) {
        EXPECT_NE(doc.find(scheme), std::string::npos)
            << "scheme '" << scheme
            << "' is not mentioned in docs/CONFIG.md";
    }
}

TEST(Config, RemovedReplayKeysFatal)
{
    // A config that still sets a key of the removed compiled-replay
    // mode must fail before the first cycle, naming the key, rather
    // than run interpreted while the stale key moves its fingerprint.
    for (const char *key :
         {"sim.compiled", "sim.compiled_ring", "sim.compiled_intervals"}) {
        Config c = harness::defaultConfig();
        c.merge(harness::schemeConfig("fs_rp"));
        c.set("cores", 4);
        c.set(key, "off");
        EXPECT_EXIT(harness::ExperimentSystem sys(c),
                    ::testing::ExitedWithCode(1),
                    std::string("'") + key + "' was removed")
            << key;
    }
}

TEST(Config, SlotWeightsParseStrict)
{
    // Each comma-separated weight must be a whole decimal number; a
    // bad token fails before the first cycle, naming the key and the
    // token, instead of escaping as an exception or being truncated.
    const std::pair<const char *, const char *> cases[] = {
        {"2,,1", ""},  {"1x,1", "1x"}, {"2,1,", ""},
        {",1", ""},    {"-1,1", "-1"}, {"1 ,1", "1 "},
        {"99999999999,1", "99999999999"}};
    for (const auto &[bad, token] : cases) {
        Config c = harness::defaultConfig();
        c.merge(harness::schemeConfig("fs_rp"));
        c.set("cores", 2);
        c.set("fs.slot_weights", bad);
        EXPECT_EXIT(harness::ExperimentSystem sys(c),
                    ::testing::ExitedWithCode(1),
                    std::string("'fs.slot_weights' has bad weight '") +
                        token + "'")
            << bad;
    }
    Config c = harness::defaultConfig();
    c.merge(harness::schemeConfig("fs_rp"));
    c.set("cores", 2);
    c.set("fs.slot_weights", "2,1");
    harness::ExperimentSystem ok(c);
}
