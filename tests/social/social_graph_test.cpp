#include "social/social_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace cloudfog::social {
namespace {

TEST(SocialGraph, EmptyGraph) {
  const SocialGraph g(5);
  EXPECT_EQ(g.player_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.are_friends(0, 1));
}

TEST(SocialGraph, AddFriendshipIsSymmetric) {
  SocialGraph g(3);
  EXPECT_TRUE(g.add_friendship(0, 2));
  EXPECT_TRUE(g.are_friends(0, 2));
  EXPECT_TRUE(g.are_friends(2, 0));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(SocialGraph, RejectsSelfLoops) {
  SocialGraph g(3);
  EXPECT_FALSE(g.add_friendship(1, 1));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(SocialGraph, IgnoresDuplicates) {
  SocialGraph g(3);
  EXPECT_TRUE(g.add_friendship(0, 1));
  EXPECT_FALSE(g.add_friendship(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(SocialGraph, FriendsListMatchesEdges) {
  SocialGraph g(4);
  g.add_friendship(0, 1);
  g.add_friendship(0, 2);
  const auto& friends = g.friends(0);
  EXPECT_EQ(friends.size(), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(SocialGraph, EdgesAreOrderedPairs) {
  SocialGraph g(4);
  g.add_friendship(3, 1);
  g.add_friendship(2, 0);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const auto& [a, b] : edges) EXPECT_LT(a, b);
}

TEST(SocialGraph, OutOfRangeThrows) {
  SocialGraph g(2);
  EXPECT_THROW(g.add_friendship(0, 2), cloudfog::ConfigError);
  EXPECT_THROW(g.friends(5), cloudfog::ConfigError);
}

// The list SocialGraph::id_ordered promises for player p: the neighbours
// below p in ascending order, then those above p in `base`'s order.
std::vector<PlayerId> expected_id_order(const SocialGraph& base, PlayerId p) {
  std::vector<PlayerId> lower;
  std::vector<PlayerId> higher;
  for (const PlayerId q : base.friends(p)) (q < p ? lower : higher).push_back(q);
  std::sort(lower.begin(), lower.end());
  lower.insert(lower.end(), higher.begin(), higher.end());
  return lower;
}

std::vector<std::pair<PlayerId, PlayerId>> sorted_edges(const SocialGraph& g) {
  auto edges = g.edges();
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(SocialGraph, IdOrderedKeepsEdgesAndReordersLists) {
  SocialGraph base(5);
  const std::vector<std::pair<PlayerId, PlayerId>> inserted{
      {2, 4}, {2, 0}, {3, 2}, {0, 4}, {1, 2}, {4, 1}, {3, 0}};
  for (const auto& [a, b] : inserted) base.add_friendship(a, b);
  // Insertion order leaves the base lists unsorted.
  ASSERT_EQ(base.friends(2), (std::vector<PlayerId>{4, 0, 3, 1}));
  ASSERT_EQ(base.friends(0), (std::vector<PlayerId>{2, 4, 3}));

  const SocialGraph ordered = base.id_ordered();
  EXPECT_EQ(ordered.player_count(), base.player_count());
  EXPECT_EQ(ordered.edge_count(), base.edge_count());
  EXPECT_EQ(sorted_edges(ordered), sorted_edges(base));
  EXPECT_EQ(ordered.friends(0), (std::vector<PlayerId>{2, 4, 3}));
  EXPECT_EQ(ordered.friends(1), (std::vector<PlayerId>{2, 4}));
  EXPECT_EQ(ordered.friends(2), (std::vector<PlayerId>{0, 1, 4, 3}));
  EXPECT_EQ(ordered.friends(3), (std::vector<PlayerId>{0, 2}));
  EXPECT_EQ(ordered.friends(4), (std::vector<PlayerId>{0, 1, 2}));
  for (PlayerId p = 0; p < base.player_count(); ++p) {
    EXPECT_EQ(ordered.friends(p), expected_id_order(base, p)) << "player " << p;
  }
}

TEST(PowerLawGraph, GeneratesRequestedSize) {
  util::Rng rng(1);
  const auto g = generate_power_law_graph(500, SocialGraphConfig{}, rng);
  EXPECT_EQ(g.player_count(), 500u);
  EXPECT_GT(g.edge_count(), 0u);
}

TEST(PowerLawGraph, DegreeDistributionIsSkewed) {
  util::Rng rng(2);
  SocialGraphConfig cfg;
  cfg.power_law_skew = 1.5;
  cfg.min_degree = 1;
  const auto g = generate_power_law_graph(5000, cfg, rng);
  std::vector<std::size_t> degrees;
  degrees.reserve(g.player_count());
  for (PlayerId p = 0; p < g.player_count(); ++p) degrees.push_back(g.degree(p));
  std::sort(degrees.begin(), degrees.end());
  const std::size_t median = degrees[degrees.size() / 2];
  const std::size_t p90 = degrees[degrees.size() * 9 / 10];
  // Heavy right tail: the 90th percentile dwarfs the median, and true
  // hubs exist far beyond it.
  EXPECT_LE(median, 8u);
  EXPECT_GE(p90, median * 2);
  EXPECT_GE(degrees.back(), p90 * 2);
}

TEST(PowerLawGraph, GuildsCreateCommunityStructure) {
  // §3.4's premise: gaming friendships are clustered. A guild-mate of a
  // guild-mate is far more likely to be a friend than a random player.
  util::Rng rng(21);
  const auto g = generate_power_law_graph(2000, SocialGraphConfig{}, rng);
  std::size_t closed = 0;
  std::size_t wedges = 0;
  for (PlayerId p = 0; p < g.player_count() && wedges < 20000; ++p) {
    const auto& friends = g.friends(p);
    for (std::size_t i = 0; i < friends.size(); ++i) {
      for (std::size_t j = i + 1; j < friends.size(); ++j) {
        ++wedges;
        if (g.are_friends(friends[i], friends[j])) ++closed;
      }
    }
  }
  ASSERT_GT(wedges, 100u);
  // Clustering coefficient well above a random graph's (~avg_deg/n ≈ 0.003).
  EXPECT_GT(static_cast<double>(closed) / static_cast<double>(wedges), 0.05);
}

TEST(PowerLawGraph, NoSelfLoopsOrDuplicates) {
  util::Rng rng(3);
  const auto g = generate_power_law_graph(1000, SocialGraphConfig{}, rng);
  for (PlayerId p = 0; p < g.player_count(); ++p) {
    const auto& friends = g.friends(p);
    for (std::size_t i = 0; i < friends.size(); ++i) {
      ASSERT_NE(friends[i], p);
      for (std::size_t j = i + 1; j < friends.size(); ++j) {
        ASSERT_NE(friends[i], friends[j]);
      }
    }
  }
}

TEST(PowerLawGraph, DeterministicForSameSeed) {
  util::Rng r1(4);
  util::Rng r2(4);
  const auto g1 = generate_power_law_graph(300, SocialGraphConfig{}, r1);
  const auto g2 = generate_power_law_graph(300, SocialGraphConfig{}, r2);
  EXPECT_EQ(g1.edges(), g2.edges());
}

TEST(PowerLawGraph, TinyGraphs) {
  util::Rng rng(5);
  const auto g0 = generate_power_law_graph(0, SocialGraphConfig{}, rng);
  EXPECT_EQ(g0.player_count(), 0u);
  const auto g1 = generate_power_law_graph(1, SocialGraphConfig{}, rng);
  EXPECT_EQ(g1.edge_count(), 0u);
}

}  // namespace
}  // namespace cloudfog::social
