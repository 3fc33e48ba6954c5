#include "perfbench/ladders.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "src/link/link_device.h"
#include "src/link/medium.h"
#include "src/mip/ipip.h"
#include "src/mip/messages.h"
#include "src/net/checksum.h"
#include "src/net/headers.h"
#include "src/net/packet.h"
#include "src/node/ip_stack.h"
#include "src/node/node.h"
#include "src/node/routing_table.h"
#include "src/sim/simulator.h"
#include "src/topo/testbed.h"
#include "src/util/rng.h"

namespace msn::perfbench {
namespace {

constexpr int kBatches = 9;
// Each timed batch repeats the body for at least this much CPU time, so the
// clock reads (a system call for the thread CPU clock) stay negligible.
constexpr double kMinBatchSeconds = 2e-3;

// Times `body`, which performs `calls` operations per invocation, in
// kBatches batches. Returns the median CPU nanoseconds per operation.
double Ladder(uint64_t calls, const std::function<void()>& body) {
  body();  // Warm caches and lazily built state.
  std::vector<double> ns;
  for (int i = 0; i < kBatches; ++i) {
    const double t0 = ThreadCpuSeconds();
    double elapsed = 0;
    uint64_t reps = 0;
    do {
      body();
      ++reps;
      elapsed = ThreadCpuSeconds() - t0;
    } while (elapsed < kMinBatchSeconds);
    ns.push_back(elapsed * 1e9 / static_cast<double>(calls * reps));
  }
  return Pct(ns, 50);
}

std::vector<size_t> SizeMix(const std::vector<double>& sizes, size_t n) {
  std::vector<size_t> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(sizes.empty() ? 64 : static_cast<size_t>(sizes[i % sizes.size()]));
  }
  return out;
}

// A FIB of `n` prefixes (lengths /8../28) plus a default route.
RoutingTable MakeFib(size_t n, Rng& rng) {
  RoutingTable fib;
  RouteEntry route;
  route.dest = Subnet(Ipv4Address::Any(), SubnetMask(0));
  route.gateway = Ipv4Address(36, 8, 0, 1);
  fib.Add(route);
  for (size_t i = 1; i < n; ++i) {
    const int len = static_cast<int>(rng.UniformInt(int64_t{8}, int64_t{28}));
    route.dest = Subnet(Ipv4Address(static_cast<uint32_t>(rng.NextU64())), SubnetMask(len));
    route.gateway = Ipv4Address(36, 8, 0, static_cast<uint8_t>(1 + i % 200));
    fib.Add(route);
  }
  return fib;
}

double LpmLadder(size_t fib_size, uint64_t lookups, Round& round) {
  Rng rng(fib_size);
  const RoutingTable fib = MakeFib(fib_size, rng);
  std::vector<Ipv4Address> dsts;
  for (uint64_t i = 0; i < lookups; ++i) {
    // Half the destinations fall inside a FIB prefix, half are random.
    const auto& e = fib.entries()[rng.UniformInt(uint64_t{0}, fib.size() - 1)];
    dsts.push_back(i % 2 == 0 ? Ipv4Address(e.dest.base().value() | 1u)
                              : Ipv4Address(static_cast<uint32_t>(rng.NextU64())));
  }
  uint64_t found = 0;
  const double ns = Ladder(lookups, [&] {
    for (Ipv4Address d : dsts) {
      found += fib.Lookup(d).has_value() ? 1 : 0;
    }
  });
  round.Check(found > 0, "LPM ladder found no routes");
  return ns;
}

}  // namespace

void RunLadders(const LadderInputs& in, Round& round) {
  auto& h = round.host;
  const std::vector<size_t> mix = SizeMix(in.sizes, 512);

  {
    // Event engine: schedule-plus-run at the workload's own backlog depth.
    Simulator sim(7);
    for (uint64_t i = 0; i < in.pending; ++i) {
      sim.Schedule(Seconds(1'000'000), [] {});
    }
    Rng rng(11);
    uint64_t fired = 0;
    constexpr uint64_t kEvents = 4096;
    h["sim.ns_per_event"] = Ladder(kEvents, [&] {
      for (uint64_t i = 0; i < kEvents; ++i) {
        sim.Schedule(Microseconds(static_cast<int64_t>(rng.UniformInt(uint64_t{1}, 1000))),
                     [&fired] { ++fired; });
      }
      sim.RunFor(Milliseconds(1));
    });
  }

  {
    // Link: one frame from device to device across a 10 Mb/s segment.
    Simulator sim(5);
    BroadcastMedium medium(sim, "ladder", EthernetMediumParams());
    EthernetDevice a(sim, "a", Node::AllocateMac());
    EthernetDevice b(sim, "b", Node::AllocateMac());
    a.AttachTo(&medium);
    b.AttachTo(&medium);
    a.ForceUp();
    b.ForceUp();
    uint64_t received = 0;
    b.SetReceiveHandler([&received](NetDevice&, EthernetFrame&&) { ++received; });
    std::vector<EthernetFrame> frames;
    for (size_t i = 0; i < 64; ++i) {
      EthernetFrame f;
      f.dst = b.mac();
      f.src = a.mac();
      f.payload = Packet::Allocate(mix[i] + 28);
      frames.push_back(std::move(f));
    }
    h["link.ns_per_frame"] = Ladder(frames.size(), [&] {
      for (const EthernetFrame& f : frames) {
        (void)a.Transmit(f);
      }
      sim.Run();
    });
  }

  {
    // Packet buffers: allocate at the workload's sizes, prepend an outer
    // header, release.
    const uint8_t header[Ipv4Header::kSize] = {0x45};
    h["net.ns_per_alloc"] = Ladder(mix.size(), [&] {
      for (size_t size : mix) {
        Packet p = Packet::Allocate(size + 28);
        p.Prepend(header);
      }
    });
    std::vector<std::vector<uint8_t>> buffers;
    for (size_t size : mix) {
      buffers.emplace_back(size + 28, static_cast<uint8_t>(size));
    }
    uint64_t sum = 0;
    h["net.ns_per_checksum"] = Ladder(buffers.size(), [&] {
      for (const auto& b : buffers) {
        sum += ComputeInternetChecksum(b);
      }
    });
    round.Check(sum != 0, "checksum ladder summed nothing");
  }

  if (in.stack != nullptr && !in.hit_dsts.empty() && !in.miss_dsts.empty()) {
    // Route lookups on the workload's own stack: cached destinations through
    // RouteLookup, uncached ones through RouteLookupUncached.
    IpStack& stack = *in.stack;
    uint64_t routed = 0;
    for (Ipv4Address d : in.hit_dsts) {
      routed += stack.RouteLookup(RouteQuery{d, Ipv4Address::Any(), true, true}) ? 1 : 0;
    }
    h["node.ns_per_lookup_hit"] = Ladder(in.hit_dsts.size(), [&] {
      for (Ipv4Address d : in.hit_dsts) {
        routed += stack.RouteLookup(RouteQuery{d, Ipv4Address::Any(), true, true}) ? 1 : 0;
      }
    });
    h["node.ns_per_lookup_miss"] = Ladder(in.miss_dsts.size(), [&] {
      for (Ipv4Address d : in.miss_dsts) {
        routed += stack.RouteLookupUncached(RouteQuery{d, Ipv4Address::Any(), true, true})
                      ? 1
                      : 0;
      }
    });
    round.Check(routed > 0, "route-lookup ladder found no routes");
  }

  h["node.ns_per_lpm_fib4"] = LpmLadder(4, 4096, round);
  h["node.ns_per_lpm_fib1k"] = LpmLadder(1024, 1024, round);
  h["node.ns_per_lpm_fib100k"] = LpmLadder(100'000, 64, round);

  {
    // IPIP encapsulation of pre-built inner datagrams (zero-copy path).
    std::vector<Packet> inner;
    auto build = [&] {
      inner.clear();
      for (size_t size : mix) {
        Ipv4Header hdr;
        hdr.src = Ipv4Address(10, 0, 0, 1);
        hdr.dst = Testbed::HomeAddress();
        std::vector<uint8_t> payload(size, 0x5a);
        inner.push_back(BuildIpv4Packet(hdr, payload));
      }
    };
    build();
    std::vector<double> ns;
    for (int i = 0; i < kBatches + 1; ++i) {
      build();
      const double t0 = ThreadCpuSeconds();
      for (Packet& p : inner) {
        Ipv4Header outer;
        Packet out = EncapsulateIpIpPacket(outer, std::move(p), Testbed::RouterOn135(),
                                           Ipv4Address(36, 8, 0, 50));
      }
      if (i > 0) {
        ns.push_back((ThreadCpuSeconds() - t0) * 1e9 / static_cast<double>(mix.size()));
      }
    }
    h["mip.ns_per_encap"] = Pct(ns, 50);
  }

  {
    std::vector<std::vector<uint8_t>> wires;
    for (uint32_t i = 0; i < 512; ++i) {
      RegistrationRequest req;
      req.lifetime_sec = 300;
      req.home_address = Ipv4Address(36, 100, static_cast<uint8_t>(i >> 8),
                                     static_cast<uint8_t>(i));
      req.home_agent = Testbed::RouterOn135();
      req.care_of_address = Ipv4Address(36, 8, 16, static_cast<uint8_t>(i));
      req.identification = 1 + i;
      wires.push_back(req.Serialize());
    }
    uint64_t parsed = 0;
    h["mip.ns_per_reg_parse"] = Ladder(wires.size(), [&] {
      for (const auto& w : wires) {
        parsed += RegistrationRequest::Parse(w).has_value() ? 1 : 0;
      }
    });
    round.Check(parsed > 0, "registration-parse ladder parsed nothing");
  }
}

}  // namespace msn::perfbench
