// Shared plumbing for the benchmark's workloads: clocks, the per-round record
// each workload fills in, and the JSON line a round prints.
//
// One process runs one round of one workload. run.py starts rounds in fresh
// processes because the buffer pool, packet arena, Packet::stats and the
// datapath tuning block are process-global: a round must not inherit the
// free lists or counters of an earlier one.
#ifndef MSN_PERFBENCH_HARNESS_H_
#define MSN_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/reference.h"
#include "src/mip/mobile_host.h"

namespace msn {

class MetricsRegistry;
class Simulator;

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Traced round: the same work as an untraced one, followed by the layer
  // ladders. Untraced rounds give the end-to-end metrics.
  bool trace = false;
};

// CPU time of the calling thread (user + system), in seconds.
double ThreadCpuSeconds();
// Monotonic wall clock, in seconds.
double WallSeconds();
// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Pct(std::vector<double> samples, double p);

// What one round reports. `sim` and `counts` are deterministic for a given
// seed (run.py digests them and requires every round of a run to agree);
// `host` holds host-clock figures, which vary from round to round.
struct Round {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops = 0;           // Ops completed over the whole round.
  uint64_t ops_measured = 0;  // Ops completed inside the timed window.
  double setup_s = 0;         // CPU seconds of set-up.
  double setup_ref_cpu_s = 0;  // CPU seconds of the reference batches around set-up.
  uint64_t setup_ref_events = 0;
  double work_cpu_s = 0;      // CPU seconds of the timed window's workload.
  double work_wall_s = 0;     // Wall seconds of the timed window.
  double ref_cpu_s = 0;       // CPU seconds of the reference kernel in the window.
  uint64_t ref_events = 0;    // Reference-kernel events run in the window.
  std::map<std::string, double> sim;
  std::map<std::string, double> counts;
  std::map<std::string, double> host;

  // Records a failed output check; the round then reports correct=false.
  void Fail(const std::string& why);
  void Check(bool ok, const std::string& why) {
    if (!ok) {
      Fail(why);
    }
  }
};

// Times the round's set-up: construct at the start, Finish() at the end. A
// batch of the reference kernel runs just before and just after, so run.py
// can divide the host's speed at that moment out of the set-up time.
class SetupTimer {
 public:
  SetupTimer();
  void Finish(Round& round);

 private:
  ReferenceKernel kernel_;
  double ref_cpu_;
  double cpu0_;
};

// Times a window of the round: construct at the start, Finish() at the end.
// The workload calls Reference() between short slices of its work; about
// every 2 ms of CPU it runs a fixed batch of the reference kernel, whose CPU
// time is kept apart from the workload's. The batches sample the host's speed
// throughout the window, at 10-25% of its CPU.
class Window {
 public:
  explicit Window(uint64_t ops_now);
  void Reference();
  void Finish(Round& round, uint64_t ops_now);

 private:
  void RunBatch();

  ReferenceKernel kernel_;  // Built before the clocks start.
  double cpu0_;
  double wall0_;
  uint64_t ops0_;
  double last_batch_;
  double ref_cpu_ = 0;
  uint64_t ref_events_ = 0;
};

// One mobile host's handoffs, in sim milliseconds: the disruption each
// caused and the Figure 7 split of its registration timeline.
struct HandoffSamples {
  std::vector<double> total;
  std::vector<double> reg;  // First registration send to accepted reply.
  std::vector<double> pre;
  std::vector<double> post;

  void Add(double total_ms, const MobileHost::RegistrationTimeline& tl);
  // handoff_ms_p50/p90 and the mip.handoff_{pre,reqrep,post}_ms_p50 split.
  void Export(Round& round) const;
};

// Event-engine accounting summed over every simulator a round drives.
struct SimTally {
  uint64_t events = 0;
  uint64_t lane = 0;
  uint64_t heap = 0;
  // Largest backlog seen at a sampling point: events scheduled but not yet
  // executed, cancelled ones included (they stay in the heap until popped).
  uint64_t pending_max = 0;

  void Sample(const Simulator& sim);
  // Adds a finished simulator's totals (call once per simulator).
  void Absorb(const Simulator& sim);
  void Export(Round& round) const;
};

// Sum of the scalar metrics whose names start with `prefix` and end with
// `suffix` (e.g. "link." and ".frames_carried" across every medium).
double SumMatching(const std::map<std::string, double>& scalars, const std::string& prefix,
                   const std::string& suffix);

// Per-layer counts every workload reads the same way: link frames and drops
// (by FrameDropReason) from the registry's link.* names, flow-cache
// activity, the registry size, and the process-wide packet and allocator
// statistics.
void ExportRegistryCounts(const MetricsRegistry& metrics, Round& round);
void ExportPacketCounts(Round& round);

std::string RoundToJson(const Options& opts, const Round& round);

Round RunTunnelRoam(const Options& opts);
Round RunFleetRegister(const Options& opts);
Round RunScenarioSweep(const Options& opts);

}  // namespace perfbench
}  // namespace msn

#endif  // MSN_PERFBENCH_HARNESS_H_
