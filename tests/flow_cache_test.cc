// Flow-cache unit tests: hit/miss behavior, centralized per-packet counting,
// and — most importantly — the invalidation contract. Every mutation a cached
// route decision can depend on must orphan the cache; the regression test at
// the bottom proves the contract is load-bearing by deliberately breaking one
// hook and watching a stale decision get served.
#include <gtest/gtest.h>

#include "src/node/flow_cache.h"
#include "src/node/node.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"
#include "src/topo/testbed.h"

namespace msn {
namespace {

class FlowCacheStackFixture : public ::testing::Test {
 protected:
  FlowCacheStackFixture() : sim_(7), node_(sim_, "fc") {
    dev_ = node_.AddEthernet("eth0", nullptr);
    dev2_ = node_.AddEthernet("eth1", nullptr);
    dev_->ForceUp();
    dev2_->ForceUp();
    node_.ConfigureInterface(dev_, "10.0.0.1/24");
    node_.ConfigureInterface(dev2_, "10.0.1.1/24");
    node_.AddDefaultRoute(Ipv4Address(10, 0, 0, 254), dev_);
  }

  FlowCache& cache() { return node_.stack().flow_cache(); }

  Simulator sim_;
  Node node_;
  EthernetDevice* dev_;
  EthernetDevice* dev2_;
};

TEST_F(FlowCacheStackFixture, ForwardingLookupHitsCacheSecondTime) {
  const RouteQuery q{Ipv4Address(36, 8, 0, 9), Ipv4Address(10, 0, 0, 7),
                     /*forwarding=*/true};
  const uint64_t misses_before = cache().misses();
  auto first = node_.stack().RouteLookup(q);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(cache().misses(), misses_before + 1);
  const uint64_t hits_before = cache().hits();
  auto second = node_.stack().RouteLookup(q);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(cache().hits(), hits_before + 1);
  EXPECT_EQ(second->device, first->device);
  EXPECT_EQ(second->src, first->src);
  EXPECT_EQ(second->next_hop, first->next_hop);
}

TEST_F(FlowCacheStackFixture, NegativeDecisionIsCached) {
  node_.stack().routes().RemoveWhere(
      [](const RouteEntry& e) { return e.dest == Subnet::Default(); });
  const RouteQuery q{Ipv4Address(99, 1, 2, 3), Ipv4Address::Any(), /*forwarding=*/true};
  EXPECT_FALSE(node_.stack().RouteLookup(q).has_value());
  const uint64_t hits_before = cache().hits();
  EXPECT_FALSE(node_.stack().RouteLookup(q).has_value());
  EXPECT_EQ(cache().hits(), hits_before + 1) << "no-route answers must cache too";
}

TEST_F(FlowCacheStackFixture, RouteAddInvalidatesCachedDecision) {
  const Ipv4Address dst(36, 8, 0, 9);
  const RouteQuery q{dst, Ipv4Address::Any(), /*forwarding=*/true};
  auto coarse = node_.stack().RouteLookup(q);
  ASSERT_TRUE(coarse.has_value());
  EXPECT_EQ(coarse->device, dev_);

  const uint64_t invalidations_before = cache().invalidations();
  // A better (host) route out the other device — e.g. an accepted ICMP
  // redirect installs exactly this kind of entry.
  node_.stack().routes().Add(
      RouteEntry{Subnet(dst, SubnetMask(32)), Ipv4Address(10, 0, 1, 254), dev2_,
                 Ipv4Address::Any(), 0});
  EXPECT_GT(cache().invalidations(), invalidations_before);

  auto fine = node_.stack().RouteLookup(q);
  ASSERT_TRUE(fine.has_value());
  EXPECT_EQ(fine->device, dev2_) << "stale pre-redirect decision served from cache";
}

TEST_F(FlowCacheStackFixture, RouteRemoveAndClearInvalidate) {
  const uint64_t gen0 = cache().generation();
  node_.stack().routes().Remove(Subnet::Default());
  EXPECT_GT(cache().generation(), gen0);
  const uint64_t gen1 = cache().generation();
  // Removing nothing must not thrash the cache.
  node_.stack().routes().Remove(Subnet(Ipv4Address(1, 2, 3, 4), SubnetMask(32)));
  EXPECT_EQ(cache().generation(), gen1);
  node_.stack().routes().Clear();
  EXPECT_GT(cache().generation(), gen1);
}

TEST_F(FlowCacheStackFixture, InterfaceRemovalInvalidates) {
  const uint64_t gen0 = cache().generation();
  node_.stack().RemoveInterface(dev2_);
  EXPECT_GT(cache().generation(), gen0);
}

TEST_F(FlowCacheStackFixture, BoundSourceLocalQueryBypassesCache) {
  const RouteQuery bound{Ipv4Address(36, 8, 0, 9), Ipv4Address(10, 0, 0, 1),
                         /*forwarding=*/false};
  const uint64_t hits = cache().hits();
  const uint64_t misses = cache().misses();
  auto decision = node_.stack().RouteLookup(bound);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(cache().hits(), hits);
  EXPECT_EQ(cache().misses(), misses)
      << "local-role queries with a bound source must not touch the cache";
}

TEST_F(FlowCacheStackFixture, CachedHitSubstitutesBoundSource) {
  const Ipv4Address dst(36, 8, 0, 9);
  // Prime the cache under the canonical Any source.
  (void)node_.stack().RouteLookup({dst, Ipv4Address::Any(), /*forwarding=*/true});
  const RouteQuery q{dst, Ipv4Address(10, 0, 0, 77), /*forwarding=*/true};
  auto cached = node_.stack().RouteLookup(q);
  auto uncached = node_.stack().RouteLookupUncached(q);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(uncached.has_value());
  EXPECT_EQ(cached->src, uncached->src);
  EXPECT_EQ(cached->device, uncached->device);
  EXPECT_EQ(cached->next_hop, uncached->next_hop);
}

TEST_F(FlowCacheStackFixture, OverrideInstallAndClearInvalidate) {
  const uint64_t gen0 = cache().generation();
  node_.stack().SetRouteLookupOverride(
      [](const RouteQuery&) -> std::optional<RouteDecision> { return std::nullopt; });
  EXPECT_GT(cache().generation(), gen0);
  const uint64_t gen1 = cache().generation();
  node_.stack().ClearRouteLookupOverride();
  EXPECT_GT(cache().generation(), gen1);
}

TEST_F(FlowCacheStackFixture, CentralCountingIsIdenticalForCachedAndFreshAnswers) {
  MetricsRegistry registry;
  CounterRef policy_counter = registry.GetCounterRef("check.fc_policy");
  uint64_t policy_hits = 0;
  node_.stack().SetRouteLookupOverride(
      [&, this](const RouteQuery& query) -> std::optional<RouteDecision> {
        RouteDecision d;
        d.device = dev_;
        d.src = Ipv4Address(10, 0, 0, 1);
        d.next_hop = query.dst;
        d.policy_counter = &policy_counter;
        d.policy_hits = &policy_hits;
        return d;
      });
  const RouteQuery q{Ipv4Address(36, 8, 0, 9), Ipv4Address::Any(), /*forwarding=*/false};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(node_.stack().RouteLookup(q).has_value());
  }
  RouteQuery advisory = q;
  advisory.advisory = true;
  ASSERT_TRUE(node_.stack().RouteLookup(advisory).has_value());
  ASSERT_TRUE(node_.stack().RouteLookupUncached(q).has_value());
  EXPECT_EQ(static_cast<uint64_t>(policy_counter), 3u)
      << "cached hits must count exactly like fresh lookups; advisory and "
         "shadow lookups must not count";
  EXPECT_EQ(policy_hits, 3u);
  EXPECT_GT(cache().hits(), 0u) << "the counted lookups must include cache hits";
}

TEST(FlowCacheTest, CapacityOverflowClearsDeterministically) {
  MetricsRegistry metrics;
  FlowCache fc(/*capacity=*/2, metrics, "small");
  auto value_for = [](uint8_t host) {
    RouteDecision decision;
    decision.next_hop = Ipv4Address(10, 2, 0, host);
    return FlowCache::Value{decision, nullptr, nullptr};
  };
  for (uint8_t i = 1; i <= 5; ++i) {
    fc.Insert(Ipv4Address(36, 8, 0, i), /*forwarding=*/true, value_for(i));
    EXPECT_LE(fc.entry_count(), 2u);
  }
  // Inserts 3 and 5 each found the cache full and cleared it, whatever the
  // hash-bucket order: only the last insert survives.
  EXPECT_EQ(fc.entry_count(), 1u);
  EXPECT_EQ(fc.Find(Ipv4Address(36, 8, 0, 4), /*forwarding=*/true), nullptr);
  const FlowCache::Value* hit = fc.Find(Ipv4Address(36, 8, 0, 5), /*forwarding=*/true);
  ASSERT_NE(hit, nullptr);
  ASSERT_TRUE(hit->decision.has_value());
  EXPECT_EQ(hit->decision->next_hop, Ipv4Address(10, 2, 0, 5));
}

// The regression that locks the invalidation contract in place: disconnect
// one hook (the routing-table change listener — rewired to a no-op, exactly
// the bug a refactor could introduce) and the cache demonstrably serves a
// stale decision. If this test ever starts passing with the hook intact,
// the cache stopped being consulted; if invalidation regresses, the
// EXPECT_NE fires in real scenarios long before anyone reads a pcap.
TEST_F(FlowCacheStackFixture, StaleEntryServedWhenInvalidationHookBroken) {
  const Ipv4Address dst(36, 8, 0, 9);
  const RouteQuery q{dst, Ipv4Address::Any(), /*forwarding=*/true};
  ASSERT_TRUE(node_.stack().RouteLookup(q).has_value());  // Prime: default via dev_.

  // Break the hook, then install the better host route.
  node_.stack().routes().SetChangeListener(nullptr);
  node_.stack().routes().Add(
      RouteEntry{Subnet(dst, SubnetMask(32)), Ipv4Address(10, 0, 1, 254), dev2_,
                 Ipv4Address::Any(), 0});

  auto cached = node_.stack().RouteLookup(q);
  auto truth = node_.stack().RouteLookupUncached(q);
  ASSERT_TRUE(cached.has_value());
  ASSERT_TRUE(truth.has_value());
  EXPECT_NE(cached->device, truth->device)
      << "broken hook should have produced a stale cached decision — the "
         "cache is no longer load-bearing";
  EXPECT_EQ(cached->device, dev_);
  EXPECT_EQ(truth->device, dev2_);

  // Manual invalidation restores coherence.
  node_.stack().InvalidateFlowCache();
  auto repaired = node_.stack().RouteLookup(q);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->device, truth->device);
}

// --- Mobility-driven invalidation (testbed) ---------------------------------

class FlowCacheMobilityFixture : public ::testing::Test {
 protected:
  void Build() {
    TestbedConfig cfg;
    cfg.seed = 6;
    cfg.realistic_delays = false;
    tb_ = std::make_unique<Testbed>(cfg);
    tb_->StartMobileAtHome();
  }

  uint64_t MhGeneration() { return tb_->mh->stack().flow_cache().generation(); }
  // Default testbed collocates the home agent on the router.
  uint64_t HaGeneration() { return tb_->router->stack().flow_cache().generation(); }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(FlowCacheMobilityFixture, PolicyTableChurnInvalidates) {
  Build();
  const Subnet corr(Ipv4Address(36, 70, 0, 10), SubnetMask(32));
  uint64_t gen = MhGeneration();
  tb_->mobile->policy_table().Set(corr, MobilePolicy::kTriangle, /*verified=*/true);
  EXPECT_GT(MhGeneration(), gen);
  gen = MhGeneration();
  tb_->mobile->policy_table().RecordFallback(Ipv4Address(36, 70, 0, 11));
  EXPECT_GT(MhGeneration(), gen);
  gen = MhGeneration();
  EXPECT_TRUE(tb_->mobile->policy_table().Remove(corr));
  EXPECT_GT(MhGeneration(), gen);
  gen = MhGeneration();
  tb_->mobile->policy_table().Clear();
  EXPECT_GT(MhGeneration(), gen);
  // Clearing an already-empty table must not thrash the cache.
  gen = MhGeneration();
  tb_->mobile->policy_table().Clear();
  EXPECT_EQ(MhGeneration(), gen);
}

TEST_F(FlowCacheMobilityFixture, HandoffInvalidatesMobileAndHomeAgentCaches) {
  Build();
  const uint64_t mh_gen = MhGeneration();
  const uint64_t ha_gen = HaGeneration();
  tb_->StartMobileOnWired(50);
  ASSERT_TRUE(tb_->mobile->registered());
  EXPECT_GT(MhGeneration(), mh_gen)
      << "foreign attach must orphan the mobile host's cached decisions";
  EXPECT_GT(HaGeneration(), ha_gen)
      << "binding install must orphan the home agent's cached decisions";

  // Return home: deregistration removes the binding; both caches flush again.
  const uint64_t mh_gen2 = MhGeneration();
  const uint64_t ha_gen2 = HaGeneration();
  tb_->MoveMhEthernetTo(tb_->net135.get());
  bool done = false;
  tb_->mobile->AttachHome([&](bool ok) { done = ok; });
  tb_->RunFor(Seconds(8));
  ASSERT_TRUE(done);
  EXPECT_GT(MhGeneration(), mh_gen2);
  EXPECT_GT(HaGeneration(), ha_gen2)
      << "binding removal must orphan the home agent's cached decisions";
}

TEST_F(FlowCacheMobilityFixture, TunnelTeardownInvalidates) {
  Build();
  tb_->StartMobileOnWired(50);
  ASSERT_TRUE(tb_->mobile->registered());
  const uint64_t gen = MhGeneration();
  // Destroying the mobility machinery clears the route override — the
  // moment the tunnel dies, every cached VIF decision must die with it.
  tb_->mobile.reset();
  EXPECT_GT(MhGeneration(), gen);
}

}  // namespace
}  // namespace msn
