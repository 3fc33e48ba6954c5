// Workload `scenario_sweep`: the fuzzer's seeds per second.
//
// A list of kGenerated scenarios derived from the run's seed plus the pinned
// corpus (tests/corpus/*.seed, read only). Every scenario is generated and
// normalized at set-up; each is then run with RunScenario, oracles on. Every
// seed builds a fresh testbed and drives the mobile host's registration
// lifecycle, faults, mobility, replication and DHCP, with little packet load.
//
// Handoff and registration latencies come from the mobile host's
// RegistrationTimeline: a tap on the host's two devices reads it as frames
// pass, and records each newly finished successful attach (taps only
// observe, so the scenario runs exactly as it would untapped).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/ladders.h"
#include "src/check/fuzzer.h"
#include "src/topo/testbed.h"

namespace msn::perfbench {
namespace {

constexpr uint64_t kGenerated = 1000;
constexpr uint64_t kWarmupSeeds = 2;
// Relative to the checkout root, where run.py starts every round.
constexpr const char* kCorpusDir = "tests/corpus";

std::vector<ScenarioSpec> LoadCorpus(Round& round) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(kCorpusDir, ec)) {
    if (entry.path().extension() == ".seed") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  round.Check(!ec && !files.empty(), std::string("no corpus scenarios under ") + kCorpusDir);
  std::vector<ScenarioSpec> specs;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    auto spec = ScenarioSpec::Parse(text.str(), &error);
    if (!spec) {
      round.Fail("corpus " + path.filename().string() + ": " + error);
      continue;
    }
    specs.push_back(NormalizeSpec(*spec));
  }
  return specs;
}

// Records each newly completed successful attach of one run's mobile host.
struct TimelineSampler {
  HandoffSamples* samples = nullptr;
  Time last_done;

  void Sample(const MobileHost& mh) {
    const auto& tl = mh.last_timeline();
    if (!tl.success || tl.done == last_done || tl.done < tl.start) {
      return;
    }
    last_done = tl.done;
    samples->Add(tl.Total().ToMillisF(), tl);
  }
};

}  // namespace

Round RunScenarioSweep(const Options& opts) {
  Round round;
  SetupTimer setup;
  const double setup0 = ThreadCpuSeconds();
  std::vector<ScenarioSpec> specs;
  for (uint64_t i = 0; i < kGenerated; ++i) {
    specs.push_back(NormalizeSpec(GenerateScenario(opts.seed * 1'000'003ull + i)));
  }
  round.host["check.gen_ms_per_seed"] =
      (ThreadCpuSeconds() - setup0) * 1e3 / static_cast<double>(kGenerated);
  for (ScenarioSpec& spec : LoadCorpus(round)) {
    specs.push_back(std::move(spec));
  }
  setup.Finish(round);

  HandoffSamples handoffs;
  // The mobile host's registrations in seeds whose HA is driven past its
  // knee by the overload stanza, and each seed's HA processing p99.
  std::vector<double> overload_reg_ms, ha_p99_ms;
  SimTally tally;
  std::map<std::string, double> totals;  // Summed per-seed counts.
  uint64_t checks = 0, violations = 0, failed_seeds = 0, completed = 0;
  uint64_t probes_sent = 0, probes_lost = 0;
  TimelineSampler sampler{&handoffs, Time()};

  RunOptions ro;
  ro.instrument = [&sampler](Testbed& tb) {
    sampler.last_done = tb.mobile->last_timeline().done;
    MobileHost* mh = tb.mobile.get();
    auto tap = [&sampler, mh](const EthernetFrame&, NetDevice::TapDirection) {
      sampler.Sample(*mh);
    };
    tb.mh_eth->SetTap(tap);
    tb.mh_radio->SetTap(tap);
  };
  ro.on_complete = [&](Testbed& tb) {
    sampler.Sample(*tb.mobile);
    if (const Histogram* h = tb.metrics.FindHistogram("ha.processing_ms");
        h != nullptr && h->count() > 0) {
      ha_p99_ms.push_back(h->Quantile(0.99));
    }
    tb.mh_eth->ClearTap();
    tb.mh_radio->ClearTap();
    tally.Absorb(tb.sim);
    Round per_seed;
    ExportRegistryCounts(tb.metrics, per_seed);
    const auto scalars = tb.metrics.ScalarSnapshot();
    per_seed.counts["fault.frames_judged"] = SumMatching(scalars, "fault.", ".frames_seen");
    per_seed.counts["mobility.ticks"] = SumMatching(scalars, "mobility.ticks", "");
    per_seed.counts["repl.msgs"] = SumMatching(scalars, "repl.", "_sent") +
                                   SumMatching(scalars, "repl.", ".snapshot_requests") +
                                   SumMatching(scalars, "repl.", ".acks_received");
    const auto mhc = tb.mobile->counters();
    per_seed.counts["mip.reg_sends"] = static_cast<double>(mhc.registrations_sent);
    per_seed.counts["mip.reg_accepts"] = static_cast<double>(mhc.registrations_accepted);
    const auto ha = tb.home_agent->counters();
    per_seed.counts["mip.encaps"] =
        static_cast<double>(ha.packets_tunneled + mhc.packets_tunneled_out);
    per_seed.counts["mip.admission_denied"] = static_cast<double>(ha.admission_denied);
    for (const auto& [name, value] : per_seed.counts) {
      totals[name] += value;
    }
  };
  auto run_one = [&](const ScenarioSpec& spec) {
    const size_t before = handoffs.reg.size();
    const RunResult result = RunScenario(spec, ro);
    if (spec.overload.enabled) {
      overload_reg_ms.insert(overload_reg_ms.end(),
                             handoffs.reg.begin() + static_cast<std::ptrdiff_t>(before),
                             handoffs.reg.end());
    }
    ++completed;
    checks += result.report.checks;
    probes_sent += result.probes_sent;
    probes_lost += result.probes_lost;
    if (result.failed()) {
      ++failed_seeds;
      for (const auto& [oracle, v] : result.report.violations) {
        violations += v.count;
        round.Fail("seed " + std::to_string(spec.seed) + ": " + oracle + ": " + v.detail);
      }
    }
  };

  for (uint64_t i = 0; i < kWarmupSeeds; ++i) {
    // Warm-up seeds come from a range the measured list never uses.
    (void)RunScenario(NormalizeSpec(GenerateScenario(~opts.seed - i)));
  }
  {
    Window window(completed);
    for (const ScenarioSpec& spec : specs) {
      run_one(spec);
      window.Reference();
    }
    window.Finish(round, completed);
  }

  round.attempted = specs.size();
  round.ops = completed;
  round.failed = failed_seeds;
  round.Check(completed == specs.size(), "not every scenario ran");
  round.Check(handoffs.total.size() >= 100, "fewer than 100 attaches observed");

  handoffs.Export(round);
  round.sim["reg_ms_p50"] = Pct(handoffs.reg, 50);
  round.sim["reg_ms_p90"] = Pct(handoffs.reg, 90);
  round.sim["mip.reg_ms_p99"] = Pct(handoffs.reg, 99);
  round.sim["mip.overload_reg_ms_p99"] = Pct(overload_reg_ms, 99);
  round.sim["mip.ha_processing_ms_p99"] = Pct(ha_p99_ms, 50);

  tally.Export(round);
  for (const auto& [name, value] : totals) {
    round.counts[name] = value;
  }
  // Registry size per testbed, not summed over the sweep.
  round.counts["telemetry.metric_count"] = totals["telemetry.metric_count"] /
                                           static_cast<double>(std::max<uint64_t>(1, completed));
  ExportPacketCounts(round);
  round.counts["check.oracle_checks"] = static_cast<double>(checks);
  round.counts["check.violations"] = static_cast<double>(violations);
  round.counts["probes_sent"] = static_cast<double>(probes_sent);
  round.counts["probes_lost"] = static_cast<double>(probes_lost);

  if (opts.trace) {
    LadderInputs in;
    in.sizes = {64.0};
    in.pending = tally.pending_max;
    // Route lookups run on a fresh testbed's router against the testbed's
    // own addresses: the swept testbeds are gone by now.
    TestbedConfig config;
    config.seed = opts.seed;
    const double build0 = ThreadCpuSeconds();
    Testbed tb(config);
    round.host["topo.testbed_build_ms"] = (ThreadCpuSeconds() - build0) * 1e3;
    in.stack = &tb.router->stack();
    in.hit_dsts = {tb.ch_address(), Testbed::HomeAddress(), Testbed::Net8().HostAt(50),
                   Testbed::Net134().HostAt(60)};
    for (uint32_t i = 0; i < 64; ++i) {
      in.miss_dsts.push_back(Testbed::Net8().HostAt(100 + i));
    }
    RunLadders(in, round);
  }
  return round;
}

}  // namespace msn::perfbench
