#include "social/social_graph.hpp"

#include <algorithm>

#include "util/distributions.hpp"
#include "util/require.hpp"

namespace cloudfog::social {

SocialGraph::SocialGraph(std::size_t n) : adjacency_(n) {}

bool SocialGraph::add_friendship(PlayerId a, PlayerId b) {
  CLOUDFOG_REQUIRE(a < adjacency_.size() && b < adjacency_.size(), "player id out of range");
  if (a == b) return false;
  if (are_friends(a, b)) return false;
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  ++edge_count_;
  return true;
}

bool SocialGraph::are_friends(PlayerId a, PlayerId b) const {
  CLOUDFOG_REQUIRE(a < adjacency_.size() && b < adjacency_.size(), "player id out of range");
  const auto& smaller = adjacency_[a].size() <= adjacency_[b].size() ? adjacency_[a] : adjacency_[b];
  const PlayerId other = adjacency_[a].size() <= adjacency_[b].size() ? b : a;
  return std::find(smaller.begin(), smaller.end(), other) != smaller.end();
}

const std::vector<PlayerId>& SocialGraph::friends(PlayerId p) const {
  CLOUDFOG_REQUIRE(p < adjacency_.size(), "player id out of range");
  return adjacency_[p];
}

std::vector<std::pair<PlayerId, PlayerId>> SocialGraph::edges() const {
  std::vector<std::pair<PlayerId, PlayerId>> out;
  out.reserve(edge_count_);
  for (PlayerId a = 0; a < adjacency_.size(); ++a) {
    for (PlayerId b : adjacency_[a]) {
      if (a < b) out.emplace_back(a, b);
    }
  }
  return out;
}

SocialGraph SocialGraph::id_ordered() const {
  SocialGraph out(adjacency_.size());
  for (PlayerId p = 0; p < adjacency_.size(); ++p) out.adjacency_[p].reserve(adjacency_[p].size());
  for (PlayerId a = 0; a < adjacency_.size(); ++a) {
    for (PlayerId b : adjacency_[a]) {
      if (a > b) continue;
      out.adjacency_[a].push_back(b);
      out.adjacency_[b].push_back(a);
    }
  }
  out.edge_count_ = edge_count_;
  return out;
}

SocialGraph generate_power_law_graph(std::size_t n, const SocialGraphConfig& cfg,
                                     util::Rng& rng) {
  CLOUDFOG_REQUIRE(cfg.max_degree >= cfg.min_degree, "degree bounds inverted");
  CLOUDFOG_REQUIRE(cfg.in_guild_fraction >= 0.0 && cfg.in_guild_fraction <= 1.0,
                   "in-guild fraction out of [0,1]");
  CLOUDFOG_REQUIRE(cfg.guild_size_min >= 2 && cfg.guild_size_max >= cfg.guild_size_min,
                   "bad guild size bounds");
  SocialGraph graph(n);
  if (n < 2) return graph;

  const int max_deg = std::min<int>(cfg.max_degree, static_cast<int>(n) - 1);
  const auto degrees =
      util::sample_power_law_degrees(rng, n, cfg.power_law_skew, cfg.min_degree, max_deg);

  // Carve the (shuffled) population into guilds of random size.
  std::vector<PlayerId> order(n);
  for (PlayerId p = 0; p < n; ++p) order[p] = p;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::size_t> guild_id(n, 0);
  std::vector<std::vector<PlayerId>> guilds;
  for (std::size_t start = 0; start < n;) {
    const auto size = std::min<std::size_t>(
        n - start,
        static_cast<std::size_t>(rng.uniform_int(cfg.guild_size_min, cfg.guild_size_max)));
    std::vector<PlayerId> members(order.begin() + static_cast<std::ptrdiff_t>(start),
                                  order.begin() + static_cast<std::ptrdiff_t>(start + size));
    for (PlayerId m : members) guild_id[m] = guilds.size();
    guilds.push_back(std::move(members));
    start += size;
  }

  // Attachment: in-guild partners are drawn uniformly (guild-mates know
  // each other regardless of popularity), global partners are drawn from
  // a degree-weighted stub list (Chung–Lu) so hubs attract the long-range
  // friendships and the power law survives. Each player initiates about
  // half its stubs; the other half arrives as incoming edges. Bounded
  // retries avoid self-loops and duplicate edges.
  std::vector<PlayerId> global_stubs;
  for (PlayerId p = 0; p < n; ++p) {
    global_stubs.insert(global_stubs.end(),
                        static_cast<std::size_t>(std::max(1, degrees[p])), p);
  }

  for (PlayerId p = 0; p < n; ++p) {
    const int initiate = (degrees[p] + 1) / 2;
    const auto& guild = guilds[guild_id[p]];
    for (int s = 0; s < initiate; ++s) {
      const bool guild_pick = guild.size() >= 2 && rng.chance(cfg.in_guild_fraction);
      for (int attempt = 0; attempt < 8; ++attempt) {
        PlayerId q;
        if (guild_pick) {
          q = guild[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(guild.size()) - 1))];
        } else {
          q = global_stubs[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(global_stubs.size()) - 1))];
        }
        if (graph.add_friendship(p, q)) break;
      }
    }
  }
  return graph;
}

}  // namespace cloudfog::social
