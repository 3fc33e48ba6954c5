// Unit tests for the routing table (longest-prefix match, the paper's
// unmodified kernel table).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/link/link_device.h"
#include "src/node/routing_table.h"
#include "src/sim/simulator.h"

namespace msn {
namespace {

class RoutingTest : public ::testing::Test {
 protected:
  RoutingTest()
      : sim_(1),
        eth0_(sim_, "eth0", MacAddress::FromId(1)),
        eth1_(sim_, "eth1", MacAddress::FromId(2)) {}

  Simulator sim_;
  EthernetDevice eth0_, eth1_;
  RoutingTable table_;
};

TEST_F(RoutingTest, LongestPrefixWins) {
  table_.Add({Subnet::MustParse("0.0.0.0/0"), Ipv4Address(10, 0, 0, 1), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.0.0.0/8"), Ipv4Address(36, 0, 0, 1), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.135.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 0});

  auto r = table_.Lookup(Ipv4Address(36, 135, 0, 10));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->device, &eth1_);
  EXPECT_TRUE(r->gateway.IsAny());

  r = table_.Lookup(Ipv4Address(36, 8, 0, 1));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->gateway, Ipv4Address(36, 0, 0, 1));

  r = table_.Lookup(Ipv4Address(171, 64, 0, 1));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->gateway, Ipv4Address(10, 0, 0, 1));
}

TEST_F(RoutingTest, HostRouteBeatsSubnetRoute) {
  table_.Add({Subnet::MustParse("36.135.0.0/16"), Ipv4Address::Any(), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.135.0.10/32"), Ipv4Address::Any(), &eth1_, {}, 0});
  auto r = table_.Lookup(Ipv4Address(36, 135, 0, 10));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->device, &eth1_);
}

TEST_F(RoutingTest, EmptyTableHasNoRoute) {
  EXPECT_FALSE(table_.Lookup(Ipv4Address(1, 2, 3, 4)).has_value());
}

TEST_F(RoutingTest, MetricBreaksTies) {
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth0_, {}, 5});
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 1});
  auto r = table_.Lookup(Ipv4Address(36, 8, 0, 1));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->device, &eth1_);
}

TEST_F(RoutingTest, EqualMetricTieGoesToFirstInserted) {
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth0_, {}, 1});
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 1});
  auto r = table_.Lookup(Ipv4Address(36, 8, 0, 1));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->device, &eth0_);

  // Removing the winner hands the prefix to the next entry in line.
  EXPECT_EQ(table_.Remove(Subnet::MustParse("36.8.0.0/16"), &eth0_), 1u);
  r = table_.Lookup(Ipv4Address(36, 8, 0, 1));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->device, &eth1_);
}

TEST_F(RoutingTest, DefaultRouteCoversEveryAddress) {
  table_.Add({Subnet::MustParse("0.0.0.0/0"), Ipv4Address(10, 0, 0, 1), &eth0_, {}, 0});
  for (const Ipv4Address dst :
       {Ipv4Address::Any(), Ipv4Address::Broadcast(), Ipv4Address(128, 0, 0, 0)}) {
    auto r = table_.Lookup(dst);
    ASSERT_TRUE(r.has_value()) << dst.ToString();
    EXPECT_EQ(r->gateway, Ipv4Address(10, 0, 0, 1));
  }
}

TEST_F(RoutingTest, HostRoutesAtAddressSpaceEdges) {
  table_.Add({Subnet::MustParse("0.0.0.0/32"), Ipv4Address::Any(), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("255.255.255.255/32"), Ipv4Address::Any(), &eth1_, {}, 0});
  auto r = table_.Lookup(Ipv4Address::Any());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->device, &eth0_);
  r = table_.Lookup(Ipv4Address::Broadcast());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->device, &eth1_);
  // A /32 covers exactly one address.
  EXPECT_FALSE(table_.Lookup(Ipv4Address(0, 0, 0, 1)).has_value());
  EXPECT_FALSE(table_.Lookup(Ipv4Address(255, 255, 255, 254)).has_value());
}

TEST_F(RoutingTest, CopyAnswersLikeOriginal) {
  table_.Add({Subnet::MustParse("0.0.0.0/0"), Ipv4Address(10, 0, 0, 1), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.0.0.0/8"), Ipv4Address(36, 0, 0, 1), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.135.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 0});
  const Ipv4Address dsts[] = {Ipv4Address(36, 135, 0, 10), Ipv4Address(36, 8, 0, 1),
                              Ipv4Address(171, 64, 0, 1)};
  const RoutingTable copied_before_lookup = table_;
  std::vector<RouteEntry> want;
  for (const Ipv4Address dst : dsts) {
    want.push_back(table_.Lookup(dst).value());
  }
  const RoutingTable copied_after_lookup = table_;
  // A later change to the original reaches neither copy.
  table_.Add({Subnet::MustParse("36.135.0.10/32"), Ipv4Address::Any(), &eth0_, {}, 0});
  ASSERT_EQ(table_.Lookup(dsts[0])->dest.prefix_len(), 32);

  for (const RoutingTable* copy : {&copied_before_lookup, &copied_after_lookup}) {
    EXPECT_EQ(copy->size(), 3u);
    for (size_t i = 0; i < want.size(); ++i) {
      auto got = copy->Lookup(dsts[i]);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->dest, want[i].dest);
      EXPECT_EQ(got->gateway, want[i].gateway);
      EXPECT_EQ(got->device, want[i].device);
    }
  }
}

TEST_F(RoutingTest, MoveKeepsAnswersAndLeavesSourceUsable) {
  table_.Add({Subnet::MustParse("36.135.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 0});
  ASSERT_TRUE(table_.Lookup(Ipv4Address(36, 135, 0, 10)).has_value());
  const RoutingTable moved = std::move(table_);
  auto r = moved.Lookup(Ipv4Address(36, 135, 0, 10));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->device, &eth1_);
  // The moved-from table is empty and must not read the moved index.
  EXPECT_FALSE(table_.Lookup(Ipv4Address(36, 135, 0, 10)).has_value());
}

TEST_F(RoutingTest, ProbesCountPrefixLengthsExamined) {
  table_.Add({Subnet::MustParse("0.0.0.0/0"), Ipv4Address(10, 0, 0, 1), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.0.0.0/8"), Ipv4Address(36, 0, 0, 1), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.135.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 0});
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 0});
  EXPECT_EQ(table_.probes(), 0u);
  // Longest length first: a /16 hit stops after one zone...
  ASSERT_TRUE(table_.Lookup(Ipv4Address(36, 135, 0, 10)).has_value());
  EXPECT_EQ(table_.probes(), 1u);
  // ...a /8 hit examines /16 first...
  ASSERT_TRUE(table_.Lookup(Ipv4Address(36, 200, 0, 1)).has_value());
  EXPECT_EQ(table_.probes(), 3u);
  // ...and outside 36.0.0.0/8 only /0 has a route to examine.
  ASSERT_TRUE(table_.Lookup(Ipv4Address(171, 64, 0, 1)).has_value());
  EXPECT_EQ(table_.probes(), 4u);
}

TEST_F(RoutingTest, RemoveByDestAndDevice) {
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 0});
  EXPECT_EQ(table_.Remove(Subnet::MustParse("36.8.0.0/16"), &eth0_), 1u);
  EXPECT_EQ(table_.size(), 1u);
  EXPECT_EQ(table_.Remove(Subnet::MustParse("36.8.0.0/16")), 1u);
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(RoutingTest, RemoveForDevice) {
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("0.0.0.0/0"), Ipv4Address(36, 8, 0, 1), &eth0_, {}, 0});
  table_.Add({Subnet::MustParse("36.135.0.0/16"), Ipv4Address::Any(), &eth1_, {}, 0});
  EXPECT_EQ(table_.RemoveForDevice(&eth0_), 2u);
  EXPECT_EQ(table_.size(), 1u);
}

TEST_F(RoutingTest, PreferredSourcePropagates) {
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address::Any(), &eth0_,
              Ipv4Address(36, 8, 0, 50), 0});
  auto r = table_.Lookup(Ipv4Address(36, 8, 0, 1));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pref_src, Ipv4Address(36, 8, 0, 50));
}

TEST_F(RoutingTest, ToStringListsEntries) {
  table_.Add({Subnet::MustParse("36.8.0.0/16"), Ipv4Address(1, 2, 3, 4), &eth0_, {}, 2});
  const std::string dump = table_.ToString();
  EXPECT_NE(dump.find("36.8.0.0/16"), std::string::npos);
  EXPECT_NE(dump.find("1.2.3.4"), std::string::npos);
  EXPECT_NE(dump.find("eth0"), std::string::npos);
}

}  // namespace
}  // namespace msn
