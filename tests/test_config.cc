#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "harness/campaign.hh"
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

    // Every shipped config must also pass the schema, not just parse.
    size_t seen = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(MEMSEC_SOURCE_DIR) + "/examples/configs")) {
        if (entry.path().extension() != ".ini")
            continue;
        ++seen;
        const Config ini = Config::loadFile(entry.path().string());
        EXPECT_EQ(configErrors(ini, harness::configSchema()), "")
            << entry.path();
    }
    EXPECT_GT(seen, 0u);
}

namespace {

std::string
readSource(const std::string &relPath)
{
    std::ifstream in(std::string(MEMSEC_SOURCE_DIR) + "/" + relPath);
    EXPECT_TRUE(in.is_open()) << relPath << " missing";
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

const ConfigKey *
declaredKey(const std::string &name)
{
    for (const ConfigKey &k : harness::configSchema()) {
        if (name == k.name)
            return &k;
    }
    return nullptr;
}

} // namespace

TEST(Config, DocConsistency)
{
    // docs/CONFIG.md catalogues the declared keys, in both directions:
    // every live row has a table line whose Default cell is the row's
    // static default, and every dotted key a table names is declared.
    const std::string doc = readSource("docs/CONFIG.md");
    std::map<std::string, std::string> docDefault;
    const std::regex keyCell(R"(^\| `([^`]+)` \|[^|]*\|([^|]*)\|)");
    const std::regex dotted(R"(`([a-z][a-z0-9_]*(\.[a-z0-9_]+)+)`)");
    std::istringstream lines(doc);
    for (std::string line; std::getline(lines, line);) {
        if (line.empty() || line[0] != '|')
            continue;
        std::smatch m;
        if (std::regex_search(line, m, keyCell)) {
            std::string cell = m[2].str();
            std::erase_if(cell,
                          [](char ch) { return ch == ' ' || ch == '`'; });
            docDefault[m[1].str()] = cell == "\"\"" ? "" : cell;
        }
        for (std::sregex_iterator it(line.begin(), line.end(), dotted), end;
             it != end; ++it) {
            const ConfigKey *k = declaredKey((*it)[1].str());
            EXPECT_TRUE(k && !k->removed)
                << "docs/CONFIG.md names '" << (*it)[1].str()
                << "', which is not a declared key";
        }
    }
    for (const ConfigKey &k : harness::configSchema()) {
        if (k.removed)
            continue;
        const auto it = docDefault.find(k.name);
        if (it == docDefault.end()) {
            ADD_FAILURE() << "config key '" << k.name
                          << "' has no row in docs/CONFIG.md";
        } else if (k.dflt) {
            EXPECT_EQ(it->second, k.dflt)
                << "docs/CONFIG.md default of '" << k.name << "'";
        }
    }
    for (const std::string &scheme : harness::allSchemes()) {
        EXPECT_NE(doc.find(scheme), std::string::npos)
            << "scheme '" << scheme
            << "' is not mentioned in docs/CONFIG.md";
    }
    for (const ConfigRule &rule : harness::combinationRules()) {
        EXPECT_NE(doc.find(std::string("\n| ") + rule.name + " |"),
                  std::string::npos)
            << "combination rule '" << rule.name
            << "' has no row in docs/CONFIG.md";
    }
}

TEST(Config, SourceReadsOnlyDeclaredKeys)
{
    // Each literal key the sources read is declared, and a key with a
    // static default is read without a fallback of its own: the row is
    // the one place the default lives.
    const std::regex getter(
        R"re(\bget(String|Int|Uint|Double|Bool)\(\s*"([^"]*)"\s*([,)]))re");
    size_t reads = 0;
    for (const char *dir : {"src", "bench", "examples"}) {
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(
                 std::string(MEMSEC_SOURCE_DIR) + "/" + dir)) {
            const std::string ext = entry.path().extension().string();
            if (ext != ".cc" && ext != ".cpp" && ext != ".hh")
                continue;
            const std::string rel =
                std::filesystem::relative(entry.path(), MEMSEC_SOURCE_DIR)
                    .string();
            const std::string text = readSource(rel);
            for (std::sregex_iterator it(text.begin(), text.end(), getter),
                 end;
                 it != end; ++it) {
                ++reads;
                const std::string key = (*it)[2].str();
                const ConfigKey *k = declaredKey(key);
                if (!k || k->removed) {
                    ADD_FAILURE() << rel << " reads undeclared key '"
                                  << key << "'";
                } else if (k->dflt && (*it)[3].str() == ",") {
                    ADD_FAILURE() << rel << " passes its own fallback for '"
                                  << key << "', whose default is "
                                  << k->dflt;
                }
            }
        }
    }
    EXPECT_GT(reads, 50u);
}

TEST(Config, UnknownKeySuggests)
{
    Config c = harness::defaultConfig();
    c.set("cores", 2);
    c.set("dram.chanels", 4);
    c.set("sim.measur", 5000);
    EXPECT_EXIT(harness::ExperimentSystem sys(c),
                ::testing::ExitedWithCode(1),
                "'dram.chanels' is not a known key; did you mean "
                "'dram.channels'");
    EXPECT_EXIT(harness::ExperimentSystem sys(c),
                ::testing::ExitedWithCode(1),
                "'sim.measur' is not a known key; did you mean "
                "'sim.measure'");
}

TEST(Config, IllTypedUnreadKeyFatal)
{
    // FR-FCFS never reads fs.* or tp.*, but a bad value there is
    // still a bad experiment.
    Config c = harness::defaultConfig();
    c.set("cores", 2);
    c.set("sched", "baseline");
    c.set("fs.boost", "maybe");
    EXPECT_EXIT(harness::ExperimentSystem sys(c),
                ::testing::ExitedWithCode(1),
                "'fs.boost' has non-boolean value 'maybe'");
    c.erase("fs.boost");
    c.set("tp.turn", "abc");
    EXPECT_EXIT(harness::ExperimentSystem sys(c),
                ::testing::ExitedWithCode(1),
                "'tp.turn' has non-integer value 'abc'");
}

TEST(Config, StringOutsideSetFatal)
{
    const std::pair<const char *, const char *> cases[] = {
        {"map.partition", "rnak"}, {"sched", "fcfs"},
        {"fs.mode", "channel"},    {"fault.kind", "cmd-drops"},
        {"leak.mi_binning", "log"}, {"traffic.process", "poison"}};
    for (const auto &[key, value] : cases) {
        Config c = harness::defaultConfig();
        c.set("cores", 2);
        c.set(key, value);
        EXPECT_EXIT(harness::ExperimentSystem sys(c),
                    ::testing::ExitedWithCode(1),
                    std::string("'") + key + "' has value '" + value +
                        "'; expected one of")
            << key;
    }
}

TEST(Config, OutOfRangeFatalBeforeFirstCycle)
{
    // The leak.* values used to fail only after the whole run, in
    // extractObservations; sim.shards = 0 was clamped in silence.
    const std::pair<const char *, const char *> cases[] = {
        {"leak.window", "0"}, {"leak.secret_bits", "0"},
        {"leak.guard", "1"},  {"leak.guard", "-0.1"},
        {"sim.shards", "0"},  {"fault.rate", "1.5"}};
    for (const auto &[key, value] : cases) {
        Config c = harness::defaultConfig();
        c.set("cores", 2);
        c.set(key, value);
        EXPECT_EXIT(harness::ExperimentSystem sys(c),
                    ::testing::ExitedWithCode(1),
                    std::string("'") + key + "' = " + value + " is ")
            << key << " = " << value;
    }
}

TEST(Config, PerDomainTrafficKeysNeedADomain)
{
    Config c = harness::defaultConfig();
    c.set("cores", 2);
    c.set("traffic.d1.process", "poisson");
    c.set("traffic.d1.rate", 4.0);
    harness::ExperimentSystem ok(c);
    c.set("traffic.d2.rate", 4.0);
    EXPECT_EXIT(harness::ExperimentSystem sys(c),
                ::testing::ExitedWithCode(1),
                "'traffic.d2.rate' is not a known key");
    c.erase("traffic.d2.rate");
    c.set("traffic.d0.clients", "many");
    EXPECT_EXIT(harness::ExperimentSystem sys(c),
                ::testing::ExitedWithCode(1),
                "'traffic.d0.clients' has non-integer value 'many'");
}

TEST(Config, RemovedShardEpochFatal)
{
    Config c = harness::defaultConfig();
    c.set("cores", 2);
    c.set("sim.shard_epoch", 8192);
    EXPECT_EXIT(harness::ExperimentSystem sys(c),
                ::testing::ExitedWithCode(1),
                "'sim.shard_epoch' was removed");
}

TEST(Config, SpelledOutDefaultSharesFingerprint)
{
    Config terse = harness::schemeConfig("fs_rp");
    terse.set("workload", "mcf");
    Config spelled = harness::defaultConfig();
    spelled.merge(terse);
    spelled.set("leak.window", 1500);
    EXPECT_EQ(harness::Campaign::fingerprint(terse),
              harness::Campaign::fingerprint(spelled));
    spelled.set("leak.window", 1501);
    EXPECT_NE(harness::Campaign::fingerprint(terse),
              harness::Campaign::fingerprint(spelled));
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

TEST(Config, RemovedPoolAndDeadTimeKeysFatal)
{
    // The controller's request pool and TP's extra dead time are gone;
    // a config that still sets either fails before the first cycle,
    // naming the key.
    for (const char *key : {"mc.request_pool", "tp.extra_dead"}) {
        Config c = harness::defaultConfig();
        c.merge(harness::schemeConfig("tp_bp"));
        c.set("cores", 4);
        c.set(key, 0);
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

TEST(Config, UnsupportedCombinationsFailBeforeFirstCycle)
{
    // Each config passes the key schema but breaks one combination
    // rule; configProblems() reports exactly that rule, naming the
    // keys and the fix. The partition-level cases are the combinations
    // whose victim timelines depend on the co-runners.
    struct Case
    {
        const char *rule;
        const char *scheme;
        std::vector<std::pair<const char *, const char *>> set;
        const char *message;
    };
    const Case cases[] = {
        {"channel-needs-baseline", "channel_part", {{"sched", "fs"}},
         "sched with map.partition = channel on several channels: "
         "channel partitioning runs a per-channel non-secure scheduler "
         "(nothing is shared); set sched = baseline"},
        {"partition-level", "fs_rp", {{"map.partition", "none"}},
         "map.partition with sched and fs.mode: the scheduler spaces its "
         "slots for a map partitioned at least by rank, got none; raise "
         "map.partition to at least that level (none < bank < rank < "
         "channel)"},
        {"partition-level", "fs_rp", {{"map.partition", "bank"}},
         "partitioned at least by rank, got bank"},
        {"partition-level", "fs_bp", {{"map.partition", "none"}},
         "partitioned at least by bank, got none"},
        {"partition-level", "fs_reordered_bp", {{"map.partition", "none"}},
         "partitioned at least by bank, got none"},
        {"partition-level", "baseline", {{"sched", "fs"}},
         "partitioned at least by rank, got none"},
        {"triple-unpartitioned", "fs_np_triple", {{"map.partition", "bank"}},
         "map.partition with fs.mode = triple: triple alternation is the "
         "no-OS-support design point; use an unpartitioned address map; "
         "set map.partition = none"},
        {"powerdown-rank", "fs_bp", {{"fs.powerdown", "true"}},
         "fs.powerdown with fs.mode: the power-down optimisation requires "
         "rank partitioning"},
        {"partition-fit", "fs_rp", {{"cores", "16"}},
         "map.partition with cores and dram.*: rank partitioning needs >= "
         "1 rank per domain (16 domains/channel, 8 ranks)"},
        {"partition-fit", "fs_bp", {{"cores", "6"}, {"dram.channels", "4"}},
         "bank partitioning over 4 channels needs a domain count "
         "divisible by the channel count (got 6)"},
        {"tp-turn-footprint", "tp_np", {{"tp.turn", "20"}},
         "tp.turn with map.partition: TP turn length 20 shorter than a "
         "transaction footprint"},
        {"slot-weights", "fs_rp", {{"fs.slot_weights", "2,1"}},
         "config key 'fs.slot_weights' has 2 slot weights for 4 domains; "
         "write one whole decimal number per core"},
    };
    std::set<std::string> covered;
    for (const Case &k : cases) {
        Config c = harness::defaultConfig();
        c.merge(harness::schemeConfig(k.scheme));
        c.set("cores", 4);
        for (const auto &[key, value] : k.set)
            c.set(key, value);
        const std::string problems = harness::configProblems(c);
        EXPECT_NE(problems.find(k.message), std::string::npos)
            << k.rule << ": " << problems;
        EXPECT_EQ(problems.rfind("\n  "), 0u)
            << k.rule << " should be the only problem: " << problems;
        covered.insert(k.rule);
    }
    for (const ConfigRule &rule : harness::combinationRules())
        EXPECT_TRUE(covered.count(rule.name)) << rule.name << " has no case";

    // The constructor refuses the config before it builds anything.
    Config bare = harness::defaultConfig();
    bare.set("cores", 4);
    bare.set("sched", "fs");
    EXPECT_EXIT(harness::ExperimentSystem sys(bare),
                ::testing::ExitedWithCode(1),
                "invalid config:\n  map.partition with sched and fs.mode");
}
