// Undirected player friendship graph.
//
// §4.1: "The number of friends for each player follows power-law
// distribution with skew factor of 1.5". The generator samples a power-law
// degree sequence and wires it with random stub matching (configuration
// model), rejecting self-loops and duplicate edges.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace cloudfog::social {

using PlayerId = std::size_t;

class SocialGraph {
 public:
  /// Empty graph over `n` players.
  explicit SocialGraph(std::size_t n);

  std::size_t player_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edge_count_; }

  /// Adds an undirected edge; ignores self-loops and duplicates.
  /// Returns true if the edge was newly added.
  bool add_friendship(PlayerId a, PlayerId b);

  bool are_friends(PlayerId a, PlayerId b) const;

  /// F(i): the friend list of a player (unordered).
  const std::vector<PlayerId>& friends(PlayerId p) const;

  std::size_t degree(PlayerId p) const { return friends(p).size(); }

  /// All edges as (a, b) with a < b.
  std::vector<std::pair<PlayerId, PlayerId>> edges() const;

  /// The same edges with every list rebuilt by one ascending walk over the
  /// (a, b), a < b pairs: each player's lower neighbours in ascending
  /// order, then its higher neighbours in this graph's order. The §3.4
  /// partitioner runs on this order (its greedy seed and modularity sums
  /// walk friends() in sequence).
  SocialGraph id_ordered() const;

 private:
  std::vector<std::vector<PlayerId>> adjacency_;
  std::size_t edge_count_ = 0;
};

struct SocialGraphConfig {
  double power_law_skew = 1.5;
  int min_degree = 0;
  int max_degree = 100;
  /// Real gaming friendships are clustered ("social friends always play
  /// together", §3.4 / [2]): players belong to latent guilds and this
  /// fraction of their friendship stubs attach inside the guild; the rest
  /// attach globally at random.
  double in_guild_fraction = 0.9;
  int guild_size_min = 8;
  int guild_size_max = 40;
};

/// Generates a guild-clustered friendship graph over `n` players whose
/// degree distribution follows a power law with the configured skew.
/// Setting in_guild_fraction to 0 recovers the plain configuration model.
SocialGraph generate_power_law_graph(std::size_t n, const SocialGraphConfig& cfg,
                                     util::Rng& rng);

}  // namespace cloudfog::social
