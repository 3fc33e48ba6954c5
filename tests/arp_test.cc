// Unit tests for ARP: resolution, retries, proxy ARP, gratuitous ARP, and
// cache maintenance — the mechanisms the home agent's interception relies on.
#include <gtest/gtest.h>

#include "src/node/node.h"
#include "src/sim/simulator.h"

namespace msn {
namespace {

class ArpFixture : public ::testing::Test {
 protected:
  ArpFixture()
      : sim_(3), seg_(sim_, "seg", EthernetMediumParams()), a_(sim_, "a"), b_(sim_, "b"),
        c_(sim_, "c") {
    a_dev_ = a_.AddEthernet("eth0", &seg_);
    b_dev_ = b_.AddEthernet("eth0", &seg_);
    c_dev_ = c_.AddEthernet("eth0", &seg_);
    for (NetDevice* dev : {static_cast<NetDevice*>(a_dev_), static_cast<NetDevice*>(b_dev_),
                           static_cast<NetDevice*>(c_dev_)}) {
      dev->ForceUp();
    }
    a_.ConfigureInterface(a_dev_, "10.0.0.1/24");
    b_.ConfigureInterface(b_dev_, "10.0.0.2/24");
    c_.ConfigureInterface(c_dev_, "10.0.0.3/24");
  }

  Simulator sim_;
  BroadcastMedium seg_;
  Node a_, b_, c_;
  EthernetDevice* a_dev_;
  EthernetDevice* b_dev_;
  EthernetDevice* c_dev_;
};

TEST_F(ArpFixture, BasicResolution) {
  std::optional<MacAddress> resolved;
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 2),
                           [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, b_dev_->mac());
  // And the responder learned the requester's mapping (it was the target).
  EXPECT_EQ(b_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 1)), a_dev_->mac());
}

TEST_F(ArpFixture, CachedResolutionIsSynchronous) {
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), b_dev_->mac());
  bool called = false;
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 2),
                           [&](std::optional<MacAddress> mac) {
                             called = true;
                             EXPECT_EQ(*mac, b_dev_->mac());
                           });
  EXPECT_TRUE(called);
  EXPECT_EQ(a_.stack().arp().counters().requests_sent, 0u);
}

TEST_F(ArpFixture, RetriesThenFails) {
  std::optional<MacAddress> resolved = MacAddress::FromId(77);
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 99),
                           [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  EXPECT_FALSE(resolved.has_value());
  EXPECT_EQ(a_.stack().arp().counters().requests_sent,
            static_cast<uint64_t>(ArpService::kMaxRetries));
}

TEST_F(ArpFixture, ConcurrentResolutionsShareOneExchange) {
  int callbacks = 0;
  for (int i = 0; i < 3; ++i) {
    a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 2),
                             [&](std::optional<MacAddress> mac) {
                               EXPECT_TRUE(mac.has_value());
                               ++callbacks;
                             });
  }
  sim_.Run();
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(a_.stack().arp().counters().requests_sent, 1u);
}

TEST_F(ArpFixture, ProxyArpAnswersForAbsentHost) {
  // b proxies for 10.0.0.50 (as a home agent proxies for an away MH).
  b_.stack().arp().AddProxyEntry(b_dev_, Ipv4Address(10, 0, 0, 50));
  std::optional<MacAddress> resolved;
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 50),
                           [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, b_dev_->mac());
  EXPECT_EQ(b_.stack().arp().counters().proxy_replies_sent, 1u);

  b_.stack().arp().RemoveProxyEntry(b_dev_, Ipv4Address(10, 0, 0, 50));
  EXPECT_FALSE(b_.stack().arp().IsProxying(b_dev_, Ipv4Address(10, 0, 0, 50)));
}

// The proxy set is keyed by (device, ip): a proxy on one interface answers
// only there, and removing it leaves the same address's proxy on another
// interface in place.
TEST_F(ArpFixture, ProxyEntriesAreKeyedByDevice) {
  BroadcastMedium seg2(sim_, "seg2", EthernetMediumParams());
  Node d(sim_, "d");
  EthernetDevice* b_dev2 = b_.AddEthernet("eth1", &seg2);
  EthernetDevice* d_dev = d.AddEthernet("eth0", &seg2);
  b_dev2->ForceUp();
  d_dev->ForceUp();
  b_.ConfigureInterface(b_dev2, "10.0.1.1/24");
  d.ConfigureInterface(d_dev, "10.0.1.4/24");
  const Ipv4Address proxied(10, 0, 0, 50);
  ArpService& arp = b_.stack().arp();
  auto resolve = [&](Node& node, NetDevice* dev) {
    std::optional<MacAddress> resolved;
    node.stack().arp().Flush();
    node.stack().arp().Resolve(dev, proxied,
                               [&](std::optional<MacAddress> mac) { resolved = mac; });
    sim_.Run();
    return resolved;
  };

  arp.AddProxyEntry(b_dev_, proxied);
  EXPECT_EQ(resolve(a_, a_dev_), b_dev_->mac());
  EXPECT_FALSE(resolve(d, d_dev).has_value()) << "proxy on eth0 answered on eth1";
  EXPECT_EQ(arp.counters().proxy_replies_sent, 1u);

  arp.AddProxyEntry(b_dev2, proxied);
  arp.RemoveProxyEntry(b_dev_, proxied);
  EXPECT_FALSE(arp.IsProxying(b_dev_, proxied));
  EXPECT_TRUE(arp.IsProxying(b_dev2, proxied));
  EXPECT_FALSE(resolve(a_, a_dev_).has_value());
  EXPECT_EQ(resolve(d, d_dev), b_dev2->mac());
}

TEST_F(ArpFixture, GratuitousRepeatsStopWhenProxyRemoved) {
  const Ipv4Address proxied(10, 0, 0, 50);
  ArpService& arp = b_.stack().arp();
  arp.AddProxyEntry(b_dev_, proxied);
  arp.AnnounceGratuitousArp(b_dev_, proxied);
  sim_.Run();
  EXPECT_EQ(arp.counters().gratuitous_sent,
            static_cast<uint64_t>(ArpService::kGratuitousRepeats));

  // Removed before the first repeat is due: the pending repeats stop, even
  // though the same address is still proxied on another interface.
  BroadcastMedium seg2(sim_, "seg2", EthernetMediumParams());
  EthernetDevice* b_dev2 = b_.AddEthernet("eth1", &seg2);
  b_dev2->ForceUp();
  arp.AddProxyEntry(b_dev2, proxied);
  arp.AnnounceGratuitousArp(b_dev_, proxied);
  arp.RemoveProxyEntry(b_dev_, proxied);
  sim_.Run();
  EXPECT_EQ(arp.counters().gratuitous_sent,
            static_cast<uint64_t>(ArpService::kGratuitousRepeats) + 1);
}

TEST_F(ArpFixture, GratuitousArpUpdatesExistingEntriesOnly) {
  // a has an entry for 10.0.0.2 -> b; c has none.
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), b_dev_->mac());

  // b announces that 10.0.0.2 now maps to a *different* MAC (as the HA does
  // when it takes over a mobile host's address).
  const MacAddress new_mac = c_dev_->mac();
  ArpMessage announce;
  announce.op = ArpOp::kReply;
  announce.sender_mac = new_mac;
  announce.sender_ip = Ipv4Address(10, 0, 0, 2);
  announce.target_mac = MacAddress::Broadcast();
  announce.target_ip = Ipv4Address(10, 0, 0, 2);
  EthernetFrame frame;
  frame.src = c_dev_->mac();
  frame.dst = MacAddress::Broadcast();
  frame.ethertype = EtherType::kArp;
  frame.payload = announce.Serialize();
  c_dev_->Transmit(frame);
  sim_.Run();

  // a's stale entry was voided (updated); c (no prior entry) stays clean.
  EXPECT_EQ(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)), new_mac);
  EXPECT_FALSE(b_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 1)).has_value());
}

TEST_F(ArpFixture, SendGratuitousArpHelper) {
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), MacAddress::FromId(999));
  b_.stack().arp().SendGratuitousArp(b_dev_, Ipv4Address(10, 0, 0, 2));
  sim_.Run();
  EXPECT_EQ(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)), b_dev_->mac());
  EXPECT_EQ(b_.stack().arp().counters().gratuitous_sent, 1u);
}

TEST_F(ArpFixture, EntriesExpire) {
  a_.stack().arp().set_entry_lifetime(Seconds(10));
  std::optional<MacAddress> resolved;
  a_.stack().arp().Resolve(a_dev_, Ipv4Address(10, 0, 0, 2),
                           [&](std::optional<MacAddress> mac) { resolved = mac; });
  sim_.Run();
  ASSERT_TRUE(resolved.has_value());
  EXPECT_TRUE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)).has_value());
  sim_.RunFor(Seconds(11));
  EXPECT_FALSE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)).has_value());
}

TEST_F(ArpFixture, RemoveEntry) {
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), b_dev_->mac());
  a_.stack().arp().RemoveEntry(Ipv4Address(10, 0, 0, 2));
  EXPECT_FALSE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)).has_value());
}

TEST_F(ArpFixture, FlushClearsCache) {
  a_.stack().arp().AddStaticEntry(Ipv4Address(10, 0, 0, 2), b_dev_->mac());
  a_.stack().arp().Flush();
  EXPECT_FALSE(a_.stack().arp().CachedLookup(Ipv4Address(10, 0, 0, 2)).has_value());
}

}  // namespace
}  // namespace msn
