// Geo-grid spatial index over registered supernode positions (perf layer
// behind Cloud::candidate_supernodes, DESIGN.md §10.1).
//
// The index answers exact k-nearest-accepting queries: bucket every
// supernode's *geolocated* position (the registry's noisy view, not the
// true endpoint) into grid cells, then expand Chebyshev rings around the
// query cell until the k-th best distance provably beats anything a
// farther ring could hold. The cell size is derived from the fleet size at
// rebuild time, so the expected number of nodes per cell stays roughly
// constant as the fleet grows.
//
// Liveness is tracked, not re-read wholesale: each CSR slot carries a
// 1-byte accepting flag and each cell an accepting count, so a query skips
// a cell with no flagged node after one read and walks only the flagged
// slots of the others. The flags are a *superset* of the truly accepting
// nodes:
//   * a transition into accepting (a seat freed, a crash cleared, a node
//     deployed) must be reported through note() or resync();
//   * a transition out of accepting needs no report — the query re-checks
//     `fleet[i].accepting()` for every flagged slot it visits and clears a
//     stale flag (and its cell count) on the spot.
// Only (un)registration — which can move a node's geolocated position —
// forces a rebuild, which Cloud triggers lazily via an epoch counter.
//
// Cells live in a dense CSR layout over the populated bounding box and
// rings are clamped to that box. The flagged slots are also kept in a
// dense list, so a drained fleet (fewer accepting nodes than a ring walk
// would read cells) is answered from that list instead: once the cells
// visited reach the flagged count, the query drops its ring partials and
// scans the list. A query thus costs O(min(cells in box,
// 2·flagged + one ring)) — what is left of the fleet, not the grid's area.
//
// Results are ordered by (distance, fleet index): a total order, so the
// grid path and the linear reference scan agree element-for-element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/coordinates.hpp"

namespace cloudfog::core {

struct SupernodeState;

class SupernodeIndex {
 public:
  /// Grid cell edge for a fleet of `fleet_size` nodes: 150 km at ≤600
  /// nodes (the paper's fleet, against ≈60 km metro sigma), shrinking with
  /// 1/√n so cell occupancy stays constant, floored at 25 km.
  static double cell_km_for(std::size_t fleet_size);

  /// Rebuilds from scratch: node `i` of `fleet` sits at `positions[i]`;
  /// the accepting flags are taken from the fleet as it is now.
  void rebuild(const std::vector<net::GeoPoint>& positions,
               const std::vector<SupernodeState>& fleet);

  std::size_t size() const { return slot_node_.size(); }
  double cell_km() const { return cell_km_; }

  /// Node `idx` may have become accepting: flags it if it now is.
  void note(const std::vector<SupernodeState>& fleet, std::size_t idx);

  /// Recomputes every flag and cell count from the fleet (bulk changes).
  void resync(const std::vector<SupernodeState>& fleet);

  /// Appends to `out` (cleared first) the indices of the `count` nearest
  /// nodes for which `fleet[i].accepting()` holds, ordered by
  /// (distance, index). Exact — identical to a full scan. Clears stale
  /// flags it meets; single-threaded (uses internal query scratch).
  void nearest_accepting(const net::GeoPoint& from, const std::vector<SupernodeState>& fleet,
                         std::size_t count, std::vector<std::size_t>& out);

 private:
  std::int64_t cell_of(double v) const;
  std::size_t cell_index(const net::GeoPoint& p) const;
  void scan_cell(std::int64_t cx, std::int64_t cy, const net::GeoPoint& from,
                 const std::vector<SupernodeState>& fleet);
  void scan_flagged(const net::GeoPoint& from, const std::vector<SupernodeState>& fleet);
  /// Sets / clears slot `slot`'s flag, its cell count (cell `c`) and its
  /// entry in the flagged list.
  void flag(std::uint32_t slot, std::size_t c);
  void unflag(std::uint32_t slot, std::size_t c);

  double cell_km_ = 150.0;
  // Dense CSR over the populated bounding box: slots of cell (cx, cy) are
  // [cell_start_[c], cell_start_[c+1]) with
  // c = (cy - min_cy_) * width_ + (cx - min_cx_). Per-slot arrays hold the
  // node's geolocated position, its fleet index and its accepting flag.
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_accepting_;
  std::vector<net::GeoPoint> slot_pos_;
  std::vector<std::uint32_t> slot_node_;
  std::vector<std::uint8_t> slot_accepting_;
  std::vector<std::uint32_t> node_slot_;  ///< fleet index -> slot
  /// Exactly the slots whose flag is set, in no particular order, and
  /// each flagged slot's position in it (unspecified for unflagged ones).
  std::vector<std::uint32_t> flagged_;
  std::vector<std::uint32_t> flagged_pos_;
  std::int64_t min_cx_ = 0;
  std::int64_t max_cx_ = 0;
  std::int64_t min_cy_ = 0;
  std::int64_t max_cy_ = 0;
  std::int64_t width_ = 0;
  /// Query scratch, reused across calls (single-threaded contract).
  std::vector<std::pair<double, std::size_t>> scratch_;
};

}  // namespace cloudfog::core
