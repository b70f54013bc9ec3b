/**
 * @file
 * Golden-stats regression tests: scaled-down versions of the fig03
 * and fig06 campaigns and the tab_solver analytics are digested and
 * compared byte-for-byte against committed files under
 * tests/golden/. A mismatch means a simulated observable moved —
 * deliberate changes regenerate the files with
 *
 *     MEMSEC_REGEN_GOLDEN=1 ./build/tests/test_golden_stats
 *
 * (or tools/regen_golden.sh, which wraps exactly that) and commit
 * the diff, which shows precisely which metric changed.
 *
 * Digest text is hexfloat throughout (via resultDigest), so equality
 * is bit-equality of every double; the repo's determinism guarantees
 * make that stable across runs, thread counts, and the idle-skip
 * fast path.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline_solver.hh"
#include "dram/timing.hh"
#include "harness/campaign.hh"
#include "harness/experiment.hh"
#include "leakage/channel.hh"
#include "util/serialize.hh"

using namespace memsec;
using namespace memsec::harness;

namespace {

std::string
goldenPath(const std::string &name)
{
    return std::string(MEMSEC_SOURCE_DIR) + "/tests/golden/" + name;
}

bool
regenRequested()
{
    const char *env = std::getenv("MEMSEC_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' &&
           std::string(env) != "0";
}

void
compareOrRegen(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        SUCCEED() << "regenerated " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << path << " missing — regenerate with MEMSEC_REGEN_GOLDEN=1 "
        << "(see tools/regen_golden.sh)";
    std::string expected((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(expected, actual)
        << "golden stats drifted for " << name
        << "; if the change is intended, run tools/regen_golden.sh "
        << "and commit the diff";
}

/** Scaled-down campaign over a figure's scheme list. */
std::string
campaignDigest(const std::vector<std::string> &schemes,
               const std::vector<std::string> &workloads)
{
    Campaign campaign;
    std::vector<std::string> labels;
    for (const auto &s : schemes) {
        for (const auto &w : workloads) {
            Config c = defaultConfig();
            c.merge(schemeConfig(s));
            c.set("workload", w);
            c.set("cores", 4);
            c.set("sim.warmup", 1500);
            c.set("sim.measure", 12000);
            labels.push_back(s + "/" + w);
            campaign.add(labels.back(), c);
        }
    }
    CampaignOptions opts;
    opts.jobs = 4; // the runner guarantees serial-identical results
    campaign.run(opts);

    std::ostringstream os;
    for (size_t i = 0; i < campaign.size(); ++i) {
        os << "== " << labels[i] << " ==\n"
           << resultDigest(campaign.result(i));
    }
    return os.str();
}

/** The tab_solver analytics for one DRAM part, hexfloat-exact. */
void
solverDigest(std::ostream &os, const char *label,
             const dram::TimingParams &tp)
{
    using core::PartitionLevel;
    using core::PeriodicRef;
    core::PipelineSolver solver(tp);
    os << "== " << label << " (" << tp.toString() << ") ==\n";
    os << std::hexfloat;
    for (PartitionLevel level :
         {PartitionLevel::Rank, PartitionLevel::Bank,
          PartitionLevel::None}) {
        for (PeriodicRef ref :
             {PeriodicRef::Data, PeriodicRef::Ras,
              PeriodicRef::Cas}) {
            const auto sol = solver.solve(ref, level);
            os << core::partitionLevelName(level) << "/"
               << core::periodicRefName(ref) << ":";
            if (!sol.feasible) {
                os << " infeasible\n";
                continue;
            }
            os << " l=" << sol.l << " Q8=" << sol.intervalQ(8)
               << " util=" << sol.peakUtilisation(tp.burst) << "\n";
        }
    }
    const auto re = solver.solveReordered(8);
    os << "reordered: spacing=" << re.spacing
       << " endGap=" << re.endGap << " Q=" << re.q
       << " util=" << re.peakUtilisation << "\n";
    os << "alternation=" << solver.alternationFactor() << "\n";
}

/** One mid-run snapshot point of the layout golden. */
struct SnapshotPoint
{
    std::string label;
    Config cfg;
};

/** A checkpoint-matrix run: audited core 0, progress every 1000.
 *  Every cycle is executed, so the kernel's executed/skipped books in
 *  the bytes do not depend on how far its wake hints let it skip. */
SnapshotPoint
snapshotPoint(const std::string &scheme, const std::string &workload,
              uint64_t seed, const std::vector<std::pair<std::string,
                                                         std::string>>
                                 &extra = {})
{
    Config c = defaultConfig();
    c.merge(schemeConfig(scheme));
    c.set("workload", workload);
    c.set("cores", 4);
    c.set("seed", seed);
    c.set("sim.warmup", 1500);
    c.set("sim.measure", 12000);
    c.set("audit.core", 0);
    c.set("audit.progress_interval", 1000);
    c.set("sim.fastforward", false);
    std::string label = scheme + "/" + workload + " seed=" +
                        std::to_string(seed);
    for (const auto &[key, value] : extra) {
        c.set(key, value);
        label += " " + key + "=" + value;
    }
    return {label, c};
}

/** "<payload length> <crc32c hex>" of a byte string. */
std::string
lengthAndCrc(const std::string &bytes)
{
    std::ostringstream os;
    os << bytes.size() << " " << std::hex << std::setw(8)
       << std::setfill('0') << crc32c(bytes);
    return os.str();
}

} // namespace

TEST(GoldenStats, Fig03DesignPointCampaign)
{
    compareOrRegen(
        "fig03.digest",
        campaignDigest({"channel_part", "fs_rp", "fs_reordered_bp",
                        "tp_bp", "fs_np", "fs_np_triple", "tp_np"},
                       {"mcf", "libquantum"}));
}

TEST(GoldenStats, Fig06PerformanceCampaign)
{
    compareOrRegen(
        "fig06.digest",
        campaignDigest({"fs_rp", "fs_reordered_bp", "tp_bp",
                        "fs_np_triple", "tp_np"},
                       {"milc", "astar"}));
}

TEST(GoldenStats, FigLeakageCampaign)
{
    // Scaled-down covert-channel sweep: one leaking and two closed
    // points. The digest pins both the run's simulated observables
    // (resultDigest, timeline included) and every metric of the
    // leakage analysis (leakageDigest, hexfloat throughout), so any
    // drift in the attack harness, the extractor, the MI estimator,
    // or the decoder shows up as a byte diff.
    Campaign campaign;
    const std::vector<std::string> schemes = {"baseline", "fs_rp",
                                              "tp_bp"};
    for (const auto &s : schemes) {
        Config c = defaultConfig();
        c.merge(schemeConfig(s));
        c.set("workload", "probe,modsender,modsender,modsender");
        c.set("cores", 4);
        c.set("sim.warmup", 0);
        c.set("sim.measure", 45000);
        c.set("audit.core", 0);
        c.set("leak.window", 1500);
        c.set("leak.secret_seed", 0xC0FFEE);
        c.set("leak.secret_bits", 16);
        c.set("leak.skip_windows", 2);
        // Pilot preamble turns on the trained attacker, so the
        // digest also pins every attacker.* metric (timing score,
        // chosen guard, pilot separation, ML BER, LLR MI, strength
        // inputs). 7 + 16 = 23 frame windows, prime as in
        // bench/fig_leakage.
        c.set("leak.code.preamble", 7);
        campaign.add(s, c);
    }
    CampaignOptions opts;
    opts.jobs = 3; // the runner guarantees serial-identical results
    campaign.run(opts);

    std::ostringstream os;
    for (size_t i = 0; i < schemes.size(); ++i) {
        const auto &res = campaign.result(i);
        const auto params = leakage::ChannelParams::fromConfig(
            campaign.outcome(i).config);
        os << "== " << schemes[i] << " ==\n"
           << leakage::leakageDigest(
                  leakage::analyzeLeakage(res.timelines.at(0), params))
           << resultDigest(res);
    }
    compareOrRegen("fig_leakage.digest", os.str());
}

TEST(GoldenStats, TabSolverAnalytics)
{
    std::ostringstream os;
    solverDigest(os, "DDR3-1600 4Gb",
                 dram::TimingParams::ddr3_1600_4gb());
    solverDigest(os, "DDR3-2133", dram::TimingParams::ddr3_2133());
    solverDigest(os, "DDR4-2400", dram::TimingParams::ddr4_2400());
    compareOrRegen("tab_solver.digest", os.str());
}

TEST(GoldenStats, SnapshotLayout)
{
    // The byte layout of snapshots and result journals, pinned as
    // payload length and CRC32C: a mid-run snapshot of every
    // checkpoint-matrix scheme plus refresh, power-down, fault
    // injection, open-loop traffic and two channels, and the journal
    // record of each finished run. A layout change that leaves every
    // observable alone still moves these lines; such a change must
    // bump the section tag it touches and regenerate this file.
    const std::vector<SnapshotPoint> points = {
        snapshotPoint("fs_rp", "mcf", 1),
        snapshotPoint("fs_rp", "libquantum", 42),
        snapshotPoint("fs_bp", "milc", 7),
        snapshotPoint("fs_np", "mcf", 1),
        snapshotPoint("fs_np_triple", "mcf", 1),
        snapshotPoint("fs_rp_powerdown", "mcf", 1),
        snapshotPoint("fs_rp_prefetch", "libquantum", 1),
        snapshotPoint("fs_reordered_bp", "mcf", 1),
        snapshotPoint("fs_reordered_bp", "milc", 42,
                      {{"map.partition", "rank"}}),
        snapshotPoint("tp_bp", "mcf", 1),
        snapshotPoint("tp_np", "xalancbmk", 7),
        snapshotPoint("baseline", "mcf", 1),
        snapshotPoint("baseline_prefetch", "mcf", 1),
        snapshotPoint("channel_part", "mcf", 1),
        snapshotPoint("fs_rp", "mcf", 1, {{"dram.refresh", "true"}}),
        snapshotPoint("baseline", "mcf", 1, {{"dram.refresh", "true"}}),
        snapshotPoint("fs_rp", "mcf", 1,
                      {{"fault.kind", "slot-skew"},
                       {"fault.magnitude", "20"}}),
        snapshotPoint("fs_rp", "cloud", 1,
                      {{"traffic.process", "mmpp"},
                       {"traffic.rate", "6"},
                       {"traffic.clients", "16"}}),
        snapshotPoint("tp_bp", "cloud", 1,
                      {{"traffic.process", "poisson"},
                       {"traffic.rate", "4"}}),
        snapshotPoint("fs_rp", "mcf", 1, {{"dram.channels", "2"}}),
    };
    std::ostringstream os;
    for (const SnapshotPoint &p : points) {
        ExperimentSystem sys(p.cfg);
        sys.step(7000);
        ASSERT_FALSE(sys.done()) << p.label;
        Serializer snap;
        sys.saveState(snap);
        while (!sys.done())
            sys.step(100000);
        Serializer journal;
        serializeResult(journal, sys.finish());
        os << p.label << ": snapshot " << lengthAndCrc(snap.data())
           << " journal " << lengthAndCrc(journal.data()) << "\n";
    }
    compareOrRegen("snapshot.digest", os.str());
}
