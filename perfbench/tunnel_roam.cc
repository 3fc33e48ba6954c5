// Workload `tunnel_roam`: the paper's datapath under mobility.
//
// The Figure 5 testbed with the home agent on the router. The router carries
// a campus-scale FIB (kPrefixes /24s plus covering /16s) whose routes all lead
// to the correspondent host's segment. The correspondent host stands in for a
// population of correspondents: one self-rescheduling source, open-loop in
// sim time, sends small UDP datagrams from kHot + kTail distinct correspondent
// addresses to the mobile host's home address. Popularity is skewed: kHotShare
// of the datagrams come from kHot addresses (fits the 1024-entry flow cache),
// the rest from a kTail-address tail (does not). The mobile host echoes every
// datagram; echoes are reverse-tunneled through the home agent, which
// decapsulates and forwards them to the correspondent, where a device tap
// checks them. A correspondent re-sends a datagram that stays unanswered for
// kResendAfter, so handoff losses show up as re-sends; an op fails only when
// a datagram is never echoed.
//
// Meanwhile the mobile host roams on a fixed 7-step cycle (kCycle) that
// alternates hot and cold switches between the 36.8 Ethernet and the 36.134
// radio with same-subnet care-of changes in between. Each handoff orphans the
// flow caches and moves the binding.
//
// The user also walks: a MobilityDriver moves the host by random waypoints
// across a kWalkSide-square yard around one radio base station and turns each
// position into the radio's link quality through a FaultInjector on the
// medium, which judges every radio frame. The yard lies inside the cell's
// clean range, so the walk never costs a frame; the handoff decisions stay
// with the script. The home agent is one half of a replicated pair: a standby
// agent on the home segment mirrors every binding change over the sync link.
//
// The offered rate stays below the radio's 35 kb/s (about 40% busy with the
// size mix below), so device queues stay short and the workload measures
// packet handling rather than queue growth.
#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/ladders.h"
#include "src/fault/fault_injector.h"
#include "src/mobility/mobility_driver.h"
#include "src/net/headers.h"
#include "src/repl/ha_replication.h"
#include "src/topo/testbed.h"
#include "src/tracing/probe.h"
#include "src/util/rng.h"

namespace msn::perfbench {
namespace {

constexpr uint32_t kHot = 64;
constexpr uint32_t kTail = 4096;
constexpr double kHotShare = 0.9;
constexpr uint32_t kPrefixes = 2048;       // 10.0.0.0/24 .. 10.7.255.0/24
constexpr double kRatePerSec = 10.0;        // Offered datagrams per sim second.
constexpr uint16_t kEchoPort = 7;
constexpr Duration kDwell = Seconds(30);    // Between handoffs.
constexpr Duration kResendAfter = Seconds(3);
constexpr int64_t kMaxResends = 8;
constexpr int64_t kWarmupCycles = 1;
constexpr int64_t kMeasuredCycles = 16;
// Side of the yard the user walks, centred on the radio base station: its
// far corners lie 57 m out, inside the cell's 72 m clean range.
constexpr double kWalkSide = 80.0;

enum class Step { kWiredCoa, kHotToRadio, kColdToWired, kColdToRadio, kHotToWired };
constexpr Step kCycle[] = {Step::kWiredCoa,    Step::kWiredCoa,    Step::kHotToRadio,
                           Step::kColdToWired, Step::kWiredCoa,    Step::kColdToRadio,
                           Step::kHotToWired};
constexpr int64_t kCycleLen = static_cast<int64_t>(sizeof(kCycle) / sizeof(kCycle[0]));

Ipv4Address CorrespondentAddress(uint32_t index) {
  const uint32_t prefix = (index * 7919u) % kPrefixes;
  const uint32_t host = 1 + index / kPrefixes;
  return Ipv4Address(10, static_cast<uint8_t>(prefix >> 8), static_cast<uint8_t>(prefix & 0xff),
                     static_cast<uint8_t>(host));
}

size_t DrawSize(Rng& rng) {
  const double u = rng.UniformDouble();
  return u < 0.85 ? 64 : (u < 0.97 ? 256 : 512);
}

uint8_t FillerByte(uint32_t flow, uint32_t seq, size_t k) {
  return static_cast<uint8_t>(flow * 131u + seq * 31u + static_cast<uint32_t>(k));
}

std::vector<uint8_t> MakePayload(uint32_t flow, uint32_t seq, size_t size) {
  std::vector<uint8_t> p(size);
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(flow >> (24 - 8 * i));
    p[4 + i] = static_cast<uint8_t>(seq >> (24 - 8 * i));
  }
  for (size_t k = 8; k < size; ++k) {
    p[k] = FillerByte(flow, seq, k);
  }
  return p;
}

uint32_t ReadU32(const std::vector<uint8_t>& p, size_t at) {
  return (static_cast<uint32_t>(p[at]) << 24) | (static_cast<uint32_t>(p[at + 1]) << 16) |
         (static_cast<uint32_t>(p[at + 2]) << 8) | p[at + 3];
}

// The correspondent population: sends, re-sends and checks echoes.
class Correspondents {
 public:
  Correspondents(Testbed& tb, uint64_t seed, Round& round)
      : tb_(tb), rng_(seed), round_(round), next_seq_(kHot + kTail, 0) {
    tb_.ch_dev->SetTap([this](const EthernetFrame& frame, NetDevice::TapDirection dir) {
      if (dir == NetDevice::TapDirection::kReceive && frame.ethertype == EtherType::kIpv4) {
        OnFrame(frame);
      }
    });
    resend_task_ = std::make_unique<PeriodicTask>(tb_.sim, Seconds(1), [this] { Sweep(); });
  }
  ~Correspondents() { tb_.ch_dev->ClearTap(); }

  void Start() {
    resend_task_->Start();
    ScheduleNext();
  }
  void StopSending() { sending_ = false; }

  uint64_t sent() const { return sent_; }
  uint64_t echoed() const { return echoed_; }
  uint64_t resends() const { return resends_; }
  uint64_t duplicates() const { return duplicates_; }
  uint64_t gave_up() const { return gave_up_; }
  size_t outstanding() const { return outstanding_.size(); }
  const std::vector<double>& sizes() const { return sizes_; }

 private:
  struct Pending {
    size_t size = 0;
    Time last_sent;
    int resends = 0;
  };
  static uint64_t Key(uint32_t flow, uint32_t seq) {
    return (static_cast<uint64_t>(flow) << 32) | seq;
  }

  void ScheduleNext() {
    const double gap_s = rng_.Exponential(1.0 / kRatePerSec);
    tb_.sim.Schedule(Duration::FromNanos(static_cast<int64_t>(gap_s * 1e9)), [this] {
      if (!sending_) {
        return;
      }
      SendFresh();
      ScheduleNext();
    });
  }

  void SendFresh() {
    const uint32_t flow = rng_.Bernoulli(kHotShare)
                              ? static_cast<uint32_t>(rng_.UniformInt(uint64_t{0}, kHot - 1))
                              : kHot + static_cast<uint32_t>(
                                           rng_.UniformInt(uint64_t{0}, kTail - 1));
    const uint32_t seq = next_seq_[flow]++;
    const size_t size = DrawSize(rng_);
    outstanding_[Key(flow, seq)] = Pending{size, tb_.sim.Now(), 0};
    ++sent_;
    if (sizes_.size() < 4096) {
      sizes_.push_back(static_cast<double>(size));
    }
    Transmit(flow, seq, size);
  }

  void Transmit(uint32_t flow, uint32_t seq, size_t size) {
    const Ipv4Address src = CorrespondentAddress(flow);
    UdpDatagram dg;
    dg.src_port = static_cast<uint16_t>(20000 + flow % 40000);
    dg.dst_port = kEchoPort;
    dg.payload = MakePayload(flow, seq, size);
    tb_.ch->stack().SendDatagram(src, Testbed::HomeAddress(), IpProto::kUdp,
                                 dg.Serialize(src, Testbed::HomeAddress()));
  }

  // Re-sends datagrams left unanswered for kResendAfter (handoff losses);
  // gives up after kMaxResends. std::map: the sweep order is part of the
  // deterministic replay.
  void Sweep() {
    const Time now = tb_.sim.Now();
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      Pending& p = it->second;
      if (now - p.last_sent < kResendAfter) {
        ++it;
        continue;
      }
      if (p.resends >= kMaxResends) {
        ++gave_up_;
        it = outstanding_.erase(it);
        continue;
      }
      ++p.resends;
      ++resends_;
      p.last_sent = now;
      Transmit(static_cast<uint32_t>(it->first >> 32), static_cast<uint32_t>(it->first),
               p.size);
      ++it;
    }
  }

  void OnFrame(const EthernetFrame& frame) {
    auto packet = Ipv4Datagram::Parse(frame.payload.span());
    if (!packet || packet->header.protocol != IpProto::kUdp ||
        packet->header.src != Testbed::HomeAddress()) {
      return;
    }
    const Ipv4Address dst = packet->header.dst;
    auto udp = UdpDatagram::Parse(packet->payload, packet->header.src, dst);
    if (!udp) {
      round_.Fail("echo with a bad UDP checksum");
      return;
    }
    const auto& p = udp->payload;
    if (udp->src_port != kEchoPort || p.size() < 8) {
      round_.Fail("echo from the wrong port or too short");
      return;
    }
    const uint32_t flow = ReadU32(p, 0);
    const uint32_t seq = ReadU32(p, 4);
    if (flow >= kHot + kTail || CorrespondentAddress(flow) != dst ||
        udp->dst_port != 20000 + flow % 40000) {
      round_.Fail("echo delivered to the wrong correspondent");
      return;
    }
    if (seq >= next_seq_[flow]) {
      round_.Fail("echo for a sequence number never sent");
      return;
    }
    for (size_t k = 8; k < p.size(); ++k) {
      if (p[k] != FillerByte(flow, seq, k)) {
        round_.Fail("echo payload corrupted");
        return;
      }
    }
    auto it = outstanding_.find(Key(flow, seq));
    if (it == outstanding_.end()) {
      ++duplicates_;  // A re-sent datagram whose original also got through.
      return;
    }
    if (it->second.size != p.size()) {
      round_.Fail("echo length differs from the datagram sent");
    }
    outstanding_.erase(it);
    ++echoed_;
  }

  Testbed& tb_;
  Rng rng_;
  Round& round_;
  std::vector<uint32_t> next_seq_;
  std::map<uint64_t, Pending> outstanding_;
  std::unique_ptr<PeriodicTask> resend_task_;
  bool sending_ = true;
  uint64_t sent_ = 0;
  uint64_t echoed_ = 0;
  uint64_t resends_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t gave_up_ = 0;
  std::vector<double> sizes_;
};

// Drives the kCycle handoff script and records each handoff.
class Roamer {
 public:
  Roamer(Testbed& tb, const HomeAgent& standby, Round& round)
      : tb_(tb), standby_(standby), round_(round) {}

  // Schedules step `index` of the script kDwell from now.
  void ScheduleStep(int index) {
    tb_.sim.Schedule(kDwell, [this, index] { RunStep(index); });
  }

  const HandoffSamples& handoffs() const { return handoffs_; }
  uint64_t mh_sends() const { return mh_sends_; }

 private:
  MobileHost& mh() { return *tb_.mobile; }

  void RunStep(int index) {
    // The previous handoff's binding change reached the standby long ago.
    auto primary = tb_.home_agent->GetBinding(Testbed::HomeAddress());
    auto mirror = standby_.GetBinding(Testbed::HomeAddress());
    round_.Check(primary && mirror && mirror->care_of == primary->care_of,
                 "standby HA binding differs from the primary's before handoff " +
                     std::to_string(index));
    const Step step = kCycle[index % kCycleLen];
    const uint32_t wired_host = 50 + static_cast<uint32_t>(index % 10);
    const uint32_t radio_host = 60 + static_cast<uint32_t>(index % 10);
    const Time start = tb_.sim.Now();
    const uint64_t sends_before = mh().counters().registrations_sent;
    auto done = [this, index, start, sends_before](bool ok) {
      OnDone(index, start, sends_before, ok);
    };
    switch (step) {
      case Step::kWiredCoa:
        mh().SwitchCareOfAddress(Testbed::Net8().HostAt(wired_host), done);
        break;
      case Step::kHotToRadio:
        if (!tb_.mh_radio->IsUp()) {
          tb_.ForceRadioUp();
        }
        tb_.mh->stack().ConfigureAddress(tb_.mh_radio, Testbed::Net134().HostAt(radio_host),
                                         SubnetMask(16));
        mh().HotSwitchTo(tb_.WirelessAttachment(radio_host), done);
        break;
      case Step::kColdToWired:
        mh().ColdSwitchTo(tb_.WiredAttachment(wired_host), done);
        break;
      case Step::kColdToRadio:
        mh().ColdSwitchTo(tb_.WirelessAttachment(radio_host), done);
        break;
      case Step::kHotToWired:
        tb_.ForceEthUp();
        tb_.mh->stack().ConfigureAddress(tb_.mh_eth, Testbed::Net8().HostAt(wired_host),
                                         SubnetMask(16));
        mh().HotSwitchTo(tb_.WiredAttachment(wired_host), done);
        break;
    }
  }

  void OnDone(int index, Time start, uint64_t sends_before, bool ok) {
    if (!ok) {
      round_.Fail("handoff " + std::to_string(index) + " failed");
      return;
    }
    auto binding = tb_.home_agent->GetBinding(Testbed::HomeAddress());
    round_.Check(binding && binding->care_of == mh().care_of(),
                 "HA binding differs from the MH's care-of after handoff " +
                     std::to_string(index));
    handoffs_.Add((tb_.sim.Now() - start).ToMillisF(), mh().last_timeline());
    mh_sends_ += mh().counters().registrations_sent - sends_before;
    if (kCycle[index % kCycleLen] == Step::kHotToRadio) {
      // The user unplugs the Ethernet once the radio carries the traffic, so
      // the next switch back to the wire is a cold one.
      tb_.mh->stack().routes().RemoveForDevice(tb_.mh_eth);
      tb_.mh->stack().UnconfigureAddress(tb_.mh_eth);
      tb_.mh_eth->TakeDown();
    }
    ScheduleStep(index + 1);
  }

  Testbed& tb_;
  const HomeAgent& standby_;
  Round& round_;
  HandoffSamples handoffs_;
  uint64_t mh_sends_ = 0;
};

}  // namespace

Round RunTunnelRoam(const Options& opts) {
  Round round;
  SetupTimer setup;
  TestbedConfig config;
  config.seed = opts.seed;
  const double build0 = ThreadCpuSeconds();
  Testbed tb(config);
  round.host["topo.testbed_build_ms"] = (ThreadCpuSeconds() - build0) * 1e3;

  // Campus-scale FIB on the router: every correspondent prefix leads to the
  // correspondent host's segment.
  NetDevice* router_to_ch = nullptr;
  for (const RouteEntry& e : tb.router->stack().routes().entries()) {
    if (e.dest == Testbed::Net8()) {
      router_to_ch = e.device;
    }
  }
  for (uint32_t i = 0; i < 8; ++i) {
    tb.router->AddNetworkRoute(Subnet(Ipv4Address(10, static_cast<uint8_t>(i), 0, 0),
                                      SubnetMask(16)),
                               tb.ch_address(), router_to_ch);
  }
  for (uint32_t p = 0; p < kPrefixes; ++p) {
    tb.router->AddNetworkRoute(
        Subnet(Ipv4Address(10, static_cast<uint8_t>(p >> 8), static_cast<uint8_t>(p & 0xff), 0),
               SubnetMask(24)),
        tb.ch_address(), router_to_ch);
  }

  // The standby half of the replicated home agent, set up as the testbed sets
  // up its own pair, with staggered takeover timeouts.
  Node standby_host(tb.sim, "ha-backup", &tb.metrics);
  EthernetDevice* standby_dev = standby_host.AddEthernet("eth0", tb.net135.get());
  standby_dev->ForceUp();
  standby_host.ConfigureInterface(standby_dev, "36.135.0.3/16");
  standby_host.AddDefaultRoute(Testbed::RouterOn135(), standby_dev);
  standby_host.AddLoopback();
  HomeAgent::Config standby_config;
  standby_config.address = Testbed::BackupHaAddress();
  standby_config.home_device = standby_dev;
  standby_config.home_subnet = Testbed::HomeSubnet();
  standby_config.metrics = &tb.metrics;
  standby_config.metric_prefix = "ha.backup.";
  standby_config.initial_role = HaRole::kStandby;
  HomeAgent standby(standby_host, standby_config);
  HaReplicationLink::Config primary_link_config;
  primary_link_config.self = tb.home_agent_address();
  primary_link_config.peer = Testbed::BackupHaAddress();
  primary_link_config.takeover_timeout = Milliseconds(2400);
  primary_link_config.metrics = &tb.metrics;
  HaReplicationLink primary_link(*tb.home_agent, primary_link_config);
  HaReplicationLink::Config standby_link_config;
  standby_link_config.self = Testbed::BackupHaAddress();
  standby_link_config.peer = tb.home_agent_address();
  standby_link_config.takeover_timeout = Milliseconds(1600);
  standby_link_config.metrics = &tb.metrics;
  standby_link_config.metric_prefix = "repl.backup.";
  HaReplicationLink standby_link(standby, standby_link_config);

  tb.StartMobileOnWired(50);

  // The walk: one radio base station in the middle of the yard.
  FaultInjector radio_faults(tb.sim, *tb.radio134, &tb.metrics);
  CampusMap yard(kWalkSide, kWalkSide);
  BaseStation station;
  station.name = "radio0";
  station.medium = CellMedium::kRadio;
  station.position = {kWalkSide / 2, kWalkSide / 2};
  yard.AddBaseStation(station);
  MobilityDriver::Config walk_config;
  walk_config.manage_association = false;  // The script makes the handoffs.
  walk_config.metrics = &tb.metrics;
  MobilityDriver walk(*tb.mobile, yard,
                      std::make_unique<RandomWaypointModel>(
                          Vec2{kWalkSide, kWalkSide}, station.position,
                          RandomWaypointModel::Params{}, Rng(opts.seed ^ 0x3a1cull)),
                      walk_config);
  walk.AddBinding(tb.RadioMobilityBinding(&radio_faults, 60));

  ProbeEchoServer echo(*tb.mh, kEchoPort);
  Correspondents corr(tb, opts.seed ^ 0x7e57ull, round);
  Roamer roamer(tb, standby, round);
  setup.Finish(round);

  walk.Start();
  corr.Start();
  roamer.ScheduleStep(0);
  SimTally tally;
  size_t queue_max = 0;
  const Time warm_end = tb.sim.Now() + kDwell * (kWarmupCycles * kCycleLen);
  const Time end = warm_end + kDwell * (kMeasuredCycles * kCycleLen);
  tb.sim.RunUntil(warm_end);
  {
    Window window(corr.echoed());
    while (tb.sim.Now() < end) {
      tb.sim.RunFor(Seconds(10));
      window.Reference();
      tally.Sample(tb.sim);
      queue_max = std::max(queue_max, tb.home_agent->ShardQueueDepth(0));
    }
    window.Finish(round, corr.echoed());
  }
  corr.StopSending();
  tb.sim.RunFor(kResendAfter * (kMaxResends + 2));
  tally.Absorb(tb.sim);

  round.attempted = corr.sent();
  round.ops = corr.echoed();
  round.failed = corr.gave_up() + corr.outstanding();
  round.Check(round.failed == 0, std::to_string(round.failed) + " datagrams never echoed");
  const HandoffSamples& handoffs = roamer.handoffs();
  const int64_t completed = static_cast<int64_t>(handoffs.total.size());
  round.Check(completed >= (kWarmupCycles + kMeasuredCycles) * kCycleLen - 1,
              "handoff script stalled after " + std::to_string(completed));
  round.Check(completed >= 100, "fewer than 100 handoffs");
  const auto faults = radio_faults.counters();
  round.Check(faults.burst_drops + faults.blackout_drops == 0,
              "the walk left the radio cell's clean range");
  const auto sent = primary_link.counters();
  const auto mirrored = standby_link.counters();
  round.Check(mirrored.mutations_applied == sent.mutations_sent &&
                  mirrored.out_of_order == 0 && sent.takeovers + mirrored.takeovers == 0 &&
                  standby.role() == HaRole::kStandby,
              "standby HA did not mirror the primary in order");

  handoffs.Export(round);
  round.sim["reg_ms_p50"] = Pct(handoffs.reg, 50);
  round.sim["reg_ms_p90"] = Pct(handoffs.reg, 90);
  round.sim["mip.reg_ms_p99"] = Pct(handoffs.reg, 99);
  round.sim["sim_seconds"] = tb.sim.Now().ToSecondsF();

  tally.Export(round);
  ExportRegistryCounts(tb.metrics, round);
  ExportPacketCounts(round);
  const auto ha = tb.home_agent->counters();
  const auto mhc = tb.mobile->counters();
  round.counts["mip.mh_sends"] = static_cast<double>(roamer.mh_sends());
  round.counts["mip.encaps"] = static_cast<double>(ha.packets_tunneled + mhc.packets_tunneled_out);
  round.counts["mip.reg_sends"] = static_cast<double>(mhc.registrations_sent);
  round.counts["mip.reg_accepts"] = static_cast<double>(mhc.registrations_accepted);
  round.counts["mip.admission_denied"] = static_cast<double>(ha.admission_denied);
  round.counts["mip.ha_queue_depth_max"] = static_cast<double>(queue_max);
  round.counts["datagrams_resent"] = static_cast<double>(corr.resends());
  round.counts["echo_duplicates"] = static_cast<double>(corr.duplicates());
  round.counts["ha.reverse_decapsulated"] = static_cast<double>(ha.reverse_decapsulated);
  round.counts["node.fib_routes"] = static_cast<double>(tb.router->stack().routes().size());
  round.counts["fault.frames_judged"] = static_cast<double>(faults.frames_seen);
  round.counts["mobility.ticks"] = static_cast<double>(walk.counters().ticks);
  // Every datagram on the sync link; acks are counted where they arrive.
  round.counts["repl.msgs"] = static_cast<double>(
      sent.heartbeats_sent + sent.mutations_sent + sent.snapshots_sent + sent.acks_received +
      mirrored.heartbeats_sent + mirrored.snapshot_requests);
  round.sim["mip.ha_processing_ms_p99"] = tb.home_agent->processing_stats_ms().count() > 0
      ? tb.metrics.FindHistogram("ha.processing_ms")->Quantile(0.99)
      : 0.0;

  if (opts.trace) {
    LadderInputs in;
    in.sizes = corr.sizes();
    in.pending = tally.pending_max;
    in.stack = &tb.router->stack();
    for (uint32_t i = 0; i < kHot; ++i) {
      in.hit_dsts.push_back(CorrespondentAddress(i));
    }
    for (uint32_t i = 0; i < 512; ++i) {
      in.miss_dsts.push_back(CorrespondentAddress(kHot + (i * 7u) % kTail));
    }
    RunLadders(in, round);
  }
  return round;
}

}  // namespace msn::perfbench
