// Per-node route-decision cache in front of IpStack::RouteLookup
// (DESIGN.md §18).
//
// The paper's enhanced ip_rt_route() runs the mobility override and two
// longest-prefix matches per packet (Mobile Policy Table, then the routing
// table). The flow cache memoizes the complete decision — output device,
// canonical source, next hop, and the policy counters the decision must bump
// per packet — keyed on (destination, forwarding bit).
//
// Correctness rests on two rules, both enforced by the owning IpStack:
//
//   1. Generation invalidation. The cache keeps one generation counter;
//      every piece of state a decision can depend on (routing-table entry,
//      MPT entry, interface address, HA binding, MH attachment/away/FA
//      state, the override itself) bumps it on mutation, which atomically
//      orphans every entry. A cached decision can therefore never outlive
//      the state that produced it — including the raw counter pointers it
//      carries, whose referents only move when a table mutates.
//
//   2. Canonical source. Entries are computed and stored under
//      src_hint = Any; a hit with a bound source substitutes the hint into
//      decision.src, which reproduces the uncached source-selection rules
//      for every eligible query. Non-forwarding queries with a bound source
//      bypass the cache entirely, because the MH override's local-role
//      exemption branches on the hint (paper §3.3).
//
// tests/flow_cache_test.cc pins the invalidation contract per hook;
// tests/datapath_diff_test.cc checks end-to-end frame traces against golden
// digests, and the fuzzer's flow-cache-coherence oracle shadow-checks every
// hit against RouteLookupUncached.
#ifndef MSN_SRC_NODE_FLOW_CACHE_H_
#define MSN_SRC_NODE_FLOW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/net/address.h"
#include "src/node/ip_stack.h"
#include "src/telemetry/metrics.h"

namespace msn {

class FlowCache {
 public:
  // A memoized lookup result. `decision == nullopt` caches a negative
  // answer (no route) — those repeat just like positive ones.
  struct Value {
    std::optional<RouteDecision> decision;
    // Per-packet policy accounting carried out of the override; bumped by
    // IpStack::RouteLookup for every non-advisory query this value answers.
    CounterRef* policy_counter = nullptr;
    uint64_t* policy_hits = nullptr;
  };

  // Entries each IpStack's cache holds before the deterministic full clear.
  static constexpr size_t kCapacity = 1024;

  // Counters land in `metrics` as "flow_cache.<node>.{hits,misses,
  // invalidations}".
  FlowCache(size_t capacity, MetricsRegistry& metrics, const std::string& node_name);
  ~FlowCache();

  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;

  // Point query; null on miss or when the entry predates the last
  // invalidation. Never iterates the map (determinism: bucket order must
  // not influence behavior).
  [[nodiscard]] const Value* Find(Ipv4Address dst, bool forwarding);

  void Insert(Ipv4Address dst, bool forwarding, Value value);

  // O(1): bumps the generation, orphaning every entry at once. Orphans are
  // reclaimed lazily on re-lookup or by the capacity clear.
  void Invalidate();

  uint64_t generation() const { return generation_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }
  size_t entry_count() const { return map_.size(); }

 private:
  struct Entry {
    Value value;
    uint64_t generation = 0;
  };

  static uint64_t Key(Ipv4Address dst, bool forwarding) {
    return static_cast<uint64_t>(dst.value()) |
           (forwarding ? (uint64_t{1} << 32) : uint64_t{0});
  }

  const size_t capacity_;
  // Point queries and point erases only — never iterated.
  std::unordered_map<uint64_t, Entry> map_;
  uint64_t generation_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
  CounterRef hits_counter_;
  CounterRef misses_counter_;
  CounterRef invalidations_counter_;
};

}  // namespace msn

#endif  // MSN_SRC_NODE_FLOW_CACHE_H_
