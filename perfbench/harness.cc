#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "src/net/packet.h"
#include "src/net/packet_arena.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"
#include "src/util/buffer_pool.h"

namespace msn::perfbench {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double WallSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would also
  // count the parent's footprint at fork time, which survives exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // Reported in kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Pct(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

void Round::Fail(const std::string& why) {
  correct = false;
  // Keep the report short: the first few failures say what broke.
  if (errors.size() < 8) {
    errors.push_back(why);
  }
}

namespace {

constexpr double kReferenceEvery = 2e-3;   // Workload CPU seconds between batches.
constexpr uint64_t kReferenceBatch = 1000;  // Events per batch, 0.2-0.7 ms.

// Runs one batch of the kernel; returns the CPU seconds it took.
double TimeBatch(ReferenceKernel& kernel) {
  const double t0 = ThreadCpuSeconds();
  kernel.Run(kReferenceBatch);
  return ThreadCpuSeconds() - t0;
}

}  // namespace

SetupTimer::SetupTimer() {
  kernel_.Run(kReferenceBatch);  // Warm the kernel's caches.
  ref_cpu_ = TimeBatch(kernel_);
  cpu0_ = ThreadCpuSeconds();
}

void SetupTimer::Finish(Round& round) {
  round.setup_s = ThreadCpuSeconds() - cpu0_;
  round.setup_ref_cpu_s = ref_cpu_ + TimeBatch(kernel_);
  round.setup_ref_events = 2 * kReferenceBatch;
}

Window::Window(uint64_t ops_now)
    : cpu0_(ThreadCpuSeconds()), wall0_(WallSeconds()), ops0_(ops_now), last_batch_(cpu0_) {}

void Window::RunBatch() {
  ref_cpu_ += TimeBatch(kernel_);
  ref_events_ += kReferenceBatch;
  last_batch_ = ThreadCpuSeconds();
}

void Window::Reference() {
  if (ThreadCpuSeconds() - last_batch_ >= kReferenceEvery) {
    RunBatch();
  }
}

void Window::Finish(Round& round, uint64_t ops_now) {
  round.work_wall_s = WallSeconds() - wall0_;
  round.work_cpu_s = ThreadCpuSeconds() - cpu0_ - ref_cpu_;
  round.ops_measured = ops_now - ops0_;
  // At least two batches, even in a window shorter than the interval.
  while (ref_events_ < 2 * kReferenceBatch) {
    RunBatch();
  }
  round.ref_cpu_s = ref_cpu_;
  round.ref_events = ref_events_;
}

void HandoffSamples::Add(double total_ms, const MobileHost::RegistrationTimeline& tl) {
  total.push_back(total_ms);
  reg.push_back(tl.RequestReply().ToMillisF());
  pre.push_back(tl.PreRegistration().ToMillisF());
  post.push_back(tl.PostRegistration().ToMillisF());
}

void HandoffSamples::Export(Round& round) const {
  round.sim["handoff_ms_p50"] = Pct(total, 50);
  round.sim["handoff_ms_p90"] = Pct(total, 90);
  round.sim["mip.handoff_pre_ms_p50"] = Pct(pre, 50);
  round.sim["mip.handoff_reqrep_ms_p50"] = Pct(reg, 50);
  round.sim["mip.handoff_post_ms_p50"] = Pct(post, 50);
  round.counts["handoffs"] = static_cast<double>(total.size());
}

void SimTally::Sample(const Simulator& sim) {
  const auto& lanes = sim.queue_lane_stats();
  const uint64_t scheduled = lanes.lane_scheduled + lanes.heap_scheduled;
  const uint64_t executed = sim.events_executed();
  pending_max = std::max(pending_max, scheduled > executed ? scheduled - executed : 0);
}

void SimTally::Absorb(const Simulator& sim) {
  Sample(sim);
  events += sim.events_executed();
  lane += sim.queue_lane_stats().lane_scheduled;
  heap += sim.queue_lane_stats().heap_scheduled;
}

void SimTally::Export(Round& round) const {
  round.counts["sim.events"] = static_cast<double>(events);
  round.counts["sim.lane_pushes"] = static_cast<double>(lane);
  round.counts["sim.heap_pushes"] = static_cast<double>(heap);
  round.counts["sim.pending_max"] = static_cast<double>(pending_max);
}

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

double SumMatching(const std::map<std::string, double>& scalars, const std::string& prefix,
                   const std::string& suffix) {
  double total = 0;
  for (auto it = scalars.lower_bound(prefix); it != scalars.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) {
      break;
    }
    if (EndsWith(it->first, suffix)) {
      total += it->second;
    }
  }
  return total;
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void AppendMap(std::string& out, const char* key, const std::map<std::string, double>& values) {
  out += ",\"";
  out += key;
  out += "\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : values) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    out += first ? "\"" : ",\"";
    out += Escape(name);
    out += "\":";
    out += buf;
    first = false;
  }
  out += "}";
}

}  // namespace

void ExportRegistryCounts(const MetricsRegistry& metrics, Round& round) {
  const auto scalars = metrics.ScalarSnapshot();
  round.counts["link.frames"] = SumMatching(scalars, "link.", ".frames_carried");
  round.counts["link.drops.random_loss"] = SumMatching(scalars, "link.", ".frames_dropped");
  round.counts["link.drops.fault_injected"] =
      SumMatching(scalars, "link.", ".frames_fault_dropped");
  round.counts["link.drops.unmatched"] = SumMatching(scalars, "link.", ".frames_unmatched");
  round.counts["node.flow_cache_hits"] = SumMatching(scalars, "flow_cache.", ".hits");
  round.counts["node.flow_cache_misses"] = SumMatching(scalars, "flow_cache.", ".misses");
  round.counts["node.flow_cache_invalidations"] =
      SumMatching(scalars, "flow_cache.", ".invalidations");
  round.counts["telemetry.metric_count"] = static_cast<double>(metrics.size());
}

void ExportPacketCounts(Round& round) {
  const Packet::Stats& packets = Packet::stats();
  round.counts["net.allocations"] = static_cast<double>(packets.allocations);
  round.counts["net.copies"] = static_cast<double>(packets.copies);
  const PacketArena::Stats& arena = DefaultPacketArena().stats();
  round.counts["net.arena_recycled"] = static_cast<double>(arena.recycled);
  round.counts["net.arena_node_allocs"] = static_cast<double>(arena.node_allocs);
  const BufferPool::Stats& pool = DefaultBufferPool().stats();
  round.counts["net.pool_hits"] = static_cast<double>(pool.hits);
  round.counts["net.pool_misses"] = static_cast<double>(pool.misses);
}

std::string RoundToJson(const Options& opts, const Round& round) {
  std::string out = "{\"workload\":\"" + Escape(opts.workload) + "\"";
  out += ",\"seed\":" + std::to_string(opts.seed);
  out += ",\"trace\":" + std::string(opts.trace ? "true" : "false");
  out += ",\"correct\":" + std::string(round.correct ? "true" : "false");
  out += ",\"errors\":[";
  for (size_t i = 0; i < round.errors.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + Escape(round.errors[i]) + "\"";
  }
  out += "]";
  out += ",\"attempted\":" + std::to_string(round.attempted);
  out += ",\"failed\":" + std::to_string(round.failed);
  out += ",\"ops\":" + std::to_string(round.ops);
  out += ",\"ops_measured\":" + std::to_string(round.ops_measured);
  std::map<std::string, double> timing = round.host;
  timing["setup_s"] = round.setup_s;
  timing["setup_ref_cpu_s"] = round.setup_ref_cpu_s;
  timing["setup_ref_events"] = static_cast<double>(round.setup_ref_events);
  timing["work_cpu_s"] = round.work_cpu_s;
  timing["work_wall_s"] = round.work_wall_s;
  timing["ref_cpu_s"] = round.ref_cpu_s;
  timing["ref_events"] = static_cast<double>(round.ref_events);
  timing["peak_rss_mb"] = PeakRssMb();
  AppendMap(out, "host", timing);
  AppendMap(out, "sim", round.sim);
  AppendMap(out, "counts", round.counts);
  out += "}";
  return out;
}

}  // namespace msn::perfbench
