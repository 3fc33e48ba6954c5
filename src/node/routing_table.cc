#include "src/node/routing_table.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "src/link/net_device.h"

namespace msn {
namespace {

// Fibonacci hashing: the top 64 - shift bits of base * 2^64/phi pick the
// home slot, which spreads bases whose low (host) bits are all zero.
uint32_t HomeSlot(uint32_t base, int shift) {
  return static_cast<uint32_t>((uint64_t{base} * 0x9E3779B97F4A7C15ull) >> shift);
}

}  // namespace

std::string RouteEntry::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-18s via %-15s dev %-8s src %-15s metric %d",
                dest.ToString().c_str(),
                gateway.IsAny() ? "*" : gateway.ToString().c_str(),
                device != nullptr ? device->name().c_str() : "-",
                pref_src.IsAny() ? "*" : pref_src.ToString().c_str(), metric);
  return buf;
}

void RoutingTable::Add(const RouteEntry& entry) {
  entries_.push_back(entry);
  MarkIndexStale();
}

size_t RoutingTable::Remove(const Subnet& dest, NetDevice* device) {
  return RemoveWhere([&](const RouteEntry& e) {
    return e.dest == dest && (device == nullptr || e.device == device);
  });
}

size_t RoutingTable::RemoveWhere(const std::function<bool(const RouteEntry&)>& pred) {
  const size_t before = entries_.size();
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(), pred), entries_.end());
  const size_t removed = before - entries_.size();
  if (removed > 0) {
    MarkIndexStale();
  }
  return removed;
}

size_t RoutingTable::RemoveForDevice(NetDevice* device) {
  return RemoveWhere([device](const RouteEntry& e) { return e.device == device; });
}

void RoutingTable::Clear() {
  const bool changed = !entries_.empty();
  entries_.clear();
  if (changed) {
    MarkIndexStale();
  }
}

std::optional<RouteEntry> RoutingTable::Lookup(Ipv4Address dst) const {
  if (lengths_by_octet_.empty()) {
    RebuildIndex();
  }
  for (uint64_t lengths = lengths_by_octet_[dst.value() >> 24]; lengths != 0;) {
    const int len = static_cast<int>(std::bit_width(lengths)) - 1;
    lengths ^= uint64_t{1} << len;
    ++probes_;
    const Zone& zone = zones_[len];
    const uint32_t base = dst.value() & SubnetMask(len).mask_value();
    for (uint32_t h = HomeSlot(base, zone.shift);; h = (h + 1) & zone.mask) {
      const Slot& slot = slots_[zone.offset + h];
      if (slot.entry == kEmptySlot) {
        break;
      }
      if (slot.base == base) {
        return entries_[slot.entry];
      }
    }
  }
  return std::nullopt;
}

void RoutingTable::RebuildIndex() const {
  std::array<uint32_t, 33> counts{};
  for (const RouteEntry& e : entries_) {
    ++counts[e.dest.prefix_len()];
  }
  uint32_t total = 0;
  for (int len = 0; len <= 32; ++len) {
    if (counts[len] == 0) {
      continue;
    }
    // At most half full, so a probe that misses reaches an empty slot soon.
    const uint32_t size = std::bit_ceil(2 * counts[len]);
    zones_[len] = Zone{total, size - 1, 64 - std::countr_zero(size)};
    total += size;
  }
  slots_.assign(total, Slot{});
  lengths_by_octet_.assign(256, 0);
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    const RouteEntry& e = entries_[i];
    const int len = e.dest.prefix_len();
    const uint32_t base = e.dest.base().value();
    // A prefix shorter than /8 overlaps 2^(8 - len) first octets.
    const uint32_t first_octet = base >> 24;
    const uint32_t octets = len >= 8 ? 1 : 1u << (8 - len);
    for (uint32_t o = first_octet; o < first_octet + octets; ++o) {
      lengths_by_octet_[o] |= uint64_t{1} << len;
    }
    const Zone& zone = zones_[len];
    for (uint32_t h = HomeSlot(base, zone.shift);; h = (h + 1) & zone.mask) {
      Slot& slot = slots_[zone.offset + h];
      if (slot.entry == kEmptySlot) {
        slot = Slot{base, i};
        break;
      }
      if (slot.base == base) {
        // Equal metrics keep the earlier entry: first inserted wins.
        if (e.metric < entries_[slot.entry].metric) {
          slot.entry = i;
        }
        break;
      }
    }
  }
}

std::string RoutingTable::ToString() const {
  std::string out;
  for (const RouteEntry& e : entries_) {
    out += e.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace msn
