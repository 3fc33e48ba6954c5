// Longest-prefix-match IPv4 routing table, modeled on the Linux 1.2 kernel
// table the paper modified: each entry names a destination prefix, an
// optional gateway, the output device, and an optional preferred source
// address. Mobile IP leaves this table untouched and layers policy on top via
// the route-lookup override (see IpStack), exactly as the paper separates
// "routing decisions" from "mobility decisions".
//
// Lookup does not scan the entries. Next to the insertion-ordered `entries_`
// (the source of truth that every mutator edits) sits an index with one zone
// per prefix length 0-32, the layout later Linux FIBs call "zone per mask
// length". Each zone is an open-addressed hash table mapping a masked
// destination base to the entry that wins for that prefix (lowest metric,
// then first inserted). For each first octet of an address, a 33-bit mask
// records which lengths have a route overlapping that /8. Lookup walks the
// destination's mask from the longest length down and returns at the first
// zone hit, so its cost grows with the number of distinct prefix lengths
// near the destination, not with the number of routes. Every mutation only
// marks the index stale; the next Lookup rebuilds it in one O(n) pass, so
// installing a large FIB costs one rebuild, not one per route. Because a
// const Lookup may rebuild, one table must not be looked up from two threads
// at once (the simulator is single-threaded).
#ifndef MSN_SRC_NODE_ROUTING_TABLE_H_
#define MSN_SRC_NODE_ROUTING_TABLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/net/address.h"

namespace msn {

class NetDevice;

struct RouteEntry {
  Subnet dest;
  // Next-hop gateway; Any() means the destination is on-link.
  Ipv4Address gateway;
  NetDevice* device = nullptr;
  // Source address to prefer for locally originated packets using this
  // route; Any() means "use the output interface's address".
  Ipv4Address pref_src;
  int metric = 0;

  std::string ToString() const;
};

class RoutingTable {
 public:
  void Add(const RouteEntry& entry);
  // Removes entries matching the exact destination prefix (and device, if
  // non-null). Returns the number removed.
  size_t Remove(const Subnet& dest, NetDevice* device = nullptr);
  size_t RemoveWhere(const std::function<bool(const RouteEntry&)>& pred);
  // Removes every route through `device` (interface shutdown).
  size_t RemoveForDevice(NetDevice* device);
  void Clear();

  // Longest-prefix match; ties broken by lowest metric, then insertion order.
  [[nodiscard]] std::optional<RouteEntry> Lookup(Ipv4Address dst) const;

  // Prefix-length zones Lookup has examined since construction: a
  // deterministic work count for the LPM layer.
  uint64_t probes() const { return probes_; }

  const std::vector<RouteEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  std::string ToString() const;

 private:
  // One hash-table slot of a zone; `entry` indexes entries_.
  struct Slot {
    uint32_t base = 0;
    uint32_t entry = kEmptySlot;
  };
  // A zone's slots are slots_[offset, offset + mask]; its size is a power of
  // two and `shift` turns a 64-bit product into a slot number.
  struct Zone {
    uint32_t offset = 0;
    uint32_t mask = 0;
    int shift = 63;
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  // Called after every mutation that changed the table.
  void MarkIndexStale() { lengths_by_octet_.clear(); }
  void RebuildIndex() const;

  std::vector<RouteEntry> entries_;

  // The Lookup index, derived from entries_ and rebuilt on demand.
  // Bit L of lengths_by_octet_[o]: a route of length L overlaps o.0.0.0/8.
  // Empty while the index is stale: before the first Lookup, after any
  // mutation, and in a moved-from table.
  mutable std::vector<uint64_t> lengths_by_octet_;
  mutable std::array<Zone, 33> zones_{};
  mutable std::vector<Slot> slots_;
  mutable uint64_t probes_ = 0;
};

}  // namespace msn

#endif  // MSN_SRC_NODE_ROUTING_TABLE_H_
