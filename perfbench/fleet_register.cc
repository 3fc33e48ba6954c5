// Workload `fleet_register`: experiment E5 at fleet scale.
//
// One home agent with 16 shards, batches of 32 and an admission limit of 64,
// on the transparent topology bench_ha_scaling uses (gigabit segments, no
// kernel delays), so the HA's own calibrated pipeline is the bottleneck. At
// set-up the agent adopts a standing table of kStanding bindings through
// HomeAgent::AdoptState, the replica-snapshot path. Then three
// RegistrationLoadGenerator fleets offer, together and at a fixed rate of
// kBelowKneeShare of the knee, renewals of standing bindings, first-time
// registrations, and a cohort with a kShortLifetimeSec lifetime whose bindings
// expire during the run. A burst of first-time registrations at twice the
// knee follows. Throughout the below-knee phase one full MobileHost changes
// its care-of address every kMhDwell, so the run also shows what a single
// user's handoff costs while the HA serves the fleet.
//
// Compared with tunnel_roam this workload writes the binding table instead of
// reading it, keeps 100k+ expiry timers in the event heap, and exercises
// admission control and retransmit backoff, with almost no forwarding.
#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/ladders.h"
#include "src/link/link_device.h"
#include "src/mip/home_agent.h"
#include "src/mip/mobile_host.h"
#include "src/mip/reg_load.h"
#include "src/node/node.h"

namespace msn::perfbench {
namespace {

constexpr uint32_t kShards = 16;
constexpr uint32_t kBatch = 32;
constexpr uint32_t kAdmissionLimit = 64;
constexpr uint32_t kStanding = 100'000;
constexpr uint32_t kRenewals = 24'000;
constexpr uint32_t kFirstTime = 24'000;
constexpr uint32_t kShortLived = 12'000;
constexpr uint32_t kBurst = 16'000;
constexpr uint16_t kShortLifetimeSec = 4;
constexpr double kBelowKneeShare = 0.5;
constexpr Duration kMhDwell = Milliseconds(25);
constexpr Duration kWarmup = Seconds(1);
constexpr Duration kSample = Milliseconds(10);

const Ipv4Address kHa(36, 135, 0, 1);
const Ipv4Address kRouterOn8(36, 8, 0, 1);
const Ipv4Address kMhHome(36, 135, 0, 10);

Ipv4Address Offset(Ipv4Address base, uint32_t i) { return Ipv4Address(base.value() + i); }

// Registrations per second the pipeline drains at saturation:
// shards * batch / (batch_fixed + batch * batch_item), from the calibration.
double KneePerSec() {
  const Calibration cal = Calibration::Default();
  const double batch_ms =
      cal.ha_batch_fixed.mean.ToMillisF() + cal.ha_batch_item.mean.ToMillisF() * kBatch;
  return kShards * kBatch / batch_ms * 1000.0;
}

Duration Interarrival(double per_sec) {
  return Duration::FromNanos(static_cast<int64_t>(1e9 / per_sec));
}

struct Topology {
  explicit Topology(uint64_t seed)
      : sim(seed),
        net135(sim, "net135", EthernetMediumParams(), &metrics),
        net8(sim, "net8", EthernetMediumParams(), &metrics),
        router(sim, "router", &metrics),
        fleet(sim, "fleet", &metrics),
        mh_node(sim, "mh", &metrics) {
    router.stack().set_forwarding_enabled(true);
    EthernetDevice* r135 = router.AddEthernet("eth135", &net135);
    EthernetDevice* r8 = router.AddEthernet("eth8", &net8);
    for (EthernetDevice* d : {r135, r8}) {
      d->set_bandwidth_bps(1'000'000'000);
      d->ForceUp();
    }
    router.ConfigureInterface(r135, "36.135.0.1/16");
    router.ConfigureInterface(r8, "36.8.0.1/16");

    HomeAgent::Config hc;
    hc.address = kHa;
    hc.home_device = r135;
    // 100k+ homes do not fit 36.135/16, so the fleet claims homes in 36/8.
    hc.home_subnet = Subnet::MustParse("36.0.0.0/8");
    hc.metrics = &metrics;
    hc.num_shards = kShards;
    hc.batch_max = kBatch;
    hc.admission_queue_limit = kAdmissionLimit;
    ha = std::make_unique<HomeAgent>(router, hc);

    EthernetDevice* f = fleet.AddEthernet("eth0", &net8);
    f->set_bandwidth_bps(1'000'000'000);
    f->ForceUp();
    fleet.ConfigureInterface(f, "36.8.0.2/16");
    fleet.AddDefaultRoute(kRouterOn8, f);

    mh_node.AddLoopback();
    mh_eth = mh_node.AddEthernet("eth0", &net8);
    mh_eth->set_bandwidth_bps(1'000'000'000);
    mh_eth->ForceUp();
    MobileHost::Config mc;
    mc.home_address = kMhHome;
    mc.home_agent = kHa;
    mc.home_gateway = kHa;
    mc.home_device = mh_eth;
    mc.metrics = &metrics;
    mobile = std::make_unique<MobileHost>(mh_node, mc);
  }

  // Declared first so it outlives every component that reports into it.
  MetricsRegistry metrics;
  Simulator sim;
  BroadcastMedium net135;
  BroadcastMedium net8;
  Node router;
  Node fleet;
  Node mh_node;
  EthernetDevice* mh_eth = nullptr;
  std::unique_ptr<HomeAgent> ha;
  std::unique_ptr<MobileHost> mobile;
};

MobileHost::Attachment MhAttachment(EthernetDevice* dev, uint32_t index) {
  MobileHost::Attachment att;
  att.device = dev;
  att.care_of = Ipv4Address(36, 8, 1, static_cast<uint8_t>(10 + index % 200));
  att.mask = SubnetMask(16);
  att.gateway = kRouterOn8;
  return att;
}

std::unique_ptr<RegistrationLoadGenerator> MakeFleet(Topology& t, Ipv4Address first_home,
                                                     uint32_t count, Duration start,
                                                     double per_sec, uint16_t lifetime) {
  RegistrationLoadGenerator::Config c;
  c.home_agent = kHa;
  c.first_home = first_home;
  c.count = count;
  c.first_care_of = Ipv4Address(36, 8, 16, 1);
  c.lifetime_sec = lifetime;
  c.start_delay = start;
  c.interarrival = Interarrival(per_sec);
  return std::make_unique<RegistrationLoadGenerator>(t.fleet, c);
}

}  // namespace

Round RunFleetRegister(const Options& opts) {
  Round round;
  SetupTimer setup;
  const double setup0 = ThreadCpuSeconds();
  Topology t(opts.seed);
  round.host["topo.testbed_build_ms"] = (ThreadCpuSeconds() - setup0) * 1e3;
  HaBindingState standing;
  standing.bindings.reserve(kStanding);
  for (uint32_t i = 0; i < kStanding; ++i) {
    HaBindingState::Entry e;
    e.home_address = Offset(Ipv4Address(36, 100, 0, 0), i);
    e.care_of = Offset(Ipv4Address(36, 8, 16, 1), i % 60'000);
    e.lifetime_sec = 600;
    standing.bindings.push_back(e);
  }
  t.ha->AdoptState(standing);

  // The three below-knee fleets interleave: each offers a share of the rate
  // proportional to its size, so all three run for the same window.
  const double knee = KneePerSec();
  const double below = knee * kBelowKneeShare;
  const double total = kRenewals + kFirstTime + kShortLived;
  const Duration start = Milliseconds(100);
  auto renew = MakeFleet(t, Ipv4Address(36, 100, 0, 0), kRenewals, start,
                         below * kRenewals / total, 300);
  auto fresh = MakeFleet(t, Ipv4Address(36, 120, 0, 0), kFirstTime, start,
                         below * kFirstTime / total, 300);
  auto brief = MakeFleet(t, Ipv4Address(36, 121, 0, 0), kShortLived, start,
                         below * kShortLived / total, kShortLifetimeSec);
  const Duration below_window = Interarrival(below) * static_cast<int64_t>(total);
  auto burst = MakeFleet(t, Ipv4Address(36, 122, 0, 0), kBurst,
                         start + below_window + Milliseconds(200), knee * 2.0, 300);
  setup.Finish(round);

  std::vector<RegistrationLoadGenerator*> below_fleets = {renew.get(), fresh.get(), brief.get()};
  std::vector<RegistrationLoadGenerator*> all_fleets = {renew.get(), fresh.get(), brief.get(),
                                                        burst.get()};
  for (auto* g : all_fleets) {
    g->Start();
  }
  auto accepted = [&] {
    uint64_t n = 0;
    for (auto* g : all_fleets) {
      n += g->stats().accepted;
    }
    return n;
  };

  // The mobile host roams across care-of addresses during the below-knee
  // window only.
  HandoffSamples handoffs;
  uint64_t mh_sends = 0;
  const Time roam_end = Time::Zero() + start + below_window;
  std::function<void(uint32_t)> roam = [&](uint32_t index) {
    const Time began = t.sim.Now();
    const uint64_t sends = t.mobile->counters().registrations_sent;
    auto done = [&, index, began, sends](bool ok) {
      if (!ok) {
        round.Fail("MH handoff " + std::to_string(index) + " failed");
        return;
      }
      auto b = t.ha->GetBinding(kMhHome);
      round.Check(b && b->care_of == t.mobile->care_of(),
                  "HA binding differs from the MH's care-of after handoff");
      handoffs.Add((t.sim.Now() - began).ToMillisF(), t.mobile->last_timeline());
      mh_sends += t.mobile->counters().registrations_sent - sends;
      if (t.sim.Now() + kMhDwell < roam_end) {
        t.sim.Schedule(kMhDwell, [&roam, index] { roam(index + 1); });
      }
    };
    if (index == 0) {
      t.mobile->AttachForeign(MhAttachment(t.mh_eth, index), done);
    } else {
      t.mobile->SwitchCareOfAddress(MhAttachment(t.mh_eth, index).care_of, done);
    }
  };
  t.sim.Schedule(start, [&roam] { roam(0); });

  SimTally tally;
  size_t queue_max = 0;
  auto run_sampled = [&](Time until, Window* window) {
    while (t.sim.Now() < until) {
      t.sim.RunFor(kSample);
      if (window != nullptr) {
        window->Reference();
      }
      tally.Sample(t.sim);
      for (size_t s = 0; s < t.ha->shard_count(); ++s) {
        queue_max = std::max(queue_max, t.ha->ShardQueueDepth(s));
      }
    }
  };
  // Clients that are still backing off after the burst settle within the
  // retransmit budget; bindings of the brief cohort expire in this window.
  const Time end = Time::Zero() + start + below_window + Seconds(40);
  run_sampled(Time::Zero() + kWarmup, nullptr);
  {
    Window window(accepted());
    run_sampled(end, &window);
    window.Finish(round, accepted());
  }
  tally.Absorb(t.sim);

  uint64_t gave_up = 0, denied = 0, sent = 0, admission_denied = 0, clients = 0;
  for (auto* g : all_fleets) {
    gave_up += g->stats().gave_up;
    denied += g->stats().denied_other;
    sent += g->stats().sent;
    admission_denied += g->stats().admission_denied;
    clients += g->client_count();
  }
  round.attempted = clients;
  round.ops = accepted();
  round.failed = gave_up + denied;
  round.Check(round.failed == 0, std::to_string(round.failed) + " clients gave up or were denied");
  round.Check(round.ops == clients, "not every client registered");
  round.Check(handoffs.total.size() >= 100, "fewer than 100 MH handoffs");
  const std::string shard_error = t.ha->ShardConsistencyError();
  round.Check(shard_error.empty(), "shard table inconsistent: " + shard_error);
  const auto ha = t.ha->counters();
  const uint64_t added = fresh->stats().accepted + brief->stats().accepted +
                         burst->stats().accepted + (t.ha->HasBinding(kMhHome) ? 1 : 0);
  round.Check(t.ha->binding_count() == kStanding + added - ha.bindings_expired,
              "binding count " + std::to_string(t.ha->binding_count()) +
                  " != standing + accepted - expired");
  round.Check(ha.bindings_expired == kShortLived, "short-lived bindings did not all expire");

  std::vector<double> below_ms;
  for (auto* g : below_fleets) {
    below_ms.insert(below_ms.end(), g->completion_samples_ms().begin(),
                    g->completion_samples_ms().end());
  }
  handoffs.Export(round);
  round.sim["reg_ms_p50"] = Pct(below_ms, 50);
  round.sim["reg_ms_p90"] = Pct(below_ms, 90);
  round.sim["mip.reg_ms_p99"] = Pct(below_ms, 99);
  round.sim["mip.overload_reg_ms_p99"] = Pct(burst->completion_samples_ms(), 99);
  const Histogram* processing = t.metrics.FindHistogram("ha.processing_ms");
  round.sim["mip.ha_processing_ms_p99"] = processing != nullptr ? processing->Quantile(0.99) : 0;
  round.sim["sim_seconds"] = t.sim.Now().ToSecondsF();

  tally.Export(round);
  ExportRegistryCounts(t.metrics, round);
  ExportPacketCounts(round);
  round.counts["mip.mh_sends"] = static_cast<double>(mh_sends);
  round.counts["mip.encaps"] = static_cast<double>(ha.packets_tunneled);
  round.counts["mip.reg_sends"] = static_cast<double>(sent);
  round.counts["mip.reg_accepts"] = static_cast<double>(round.ops);
  round.counts["mip.admission_denied"] = static_cast<double>(admission_denied);
  round.counts["mip.ha_queue_depth_max"] = static_cast<double>(queue_max);
  round.counts["ha.bindings_expired"] = static_cast<double>(ha.bindings_expired);
  round.counts["ha.bindings_final"] = static_cast<double>(t.ha->binding_count());

  if (opts.trace) {
    LadderInputs in;
    in.sizes = {static_cast<double>(RegistrationRequest::kSize)};
    in.pending = tally.pending_max;
    in.stack = &t.router.stack();
    // Destinations the router resolves for this workload: the fleet host
    // and the mobile host's care-of addresses on the foreign segment.
    in.hit_dsts = {Ipv4Address(36, 8, 0, 2), t.mobile->care_of()};
    for (uint32_t i = 0; i < 64; ++i) {
      in.miss_dsts.push_back(Ipv4Address(36, 8, 2, static_cast<uint8_t>(i)));
    }
    RunLadders(in, round);
  }
  return round;
}

}  // namespace msn::perfbench
