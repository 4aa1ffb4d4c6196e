#include "core/supernode_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/entities.hpp"
#include "util/require.hpp"

namespace cloudfog::core {

namespace {

// (distance, index) — the total order both the grid and the linear
// reference scan sort by.
bool closer(const std::pair<double, std::size_t>& a, const std::pair<double, std::size_t>& b) {
  if (a.first != b.first) return a.first < b.first;
  return a.second < b.second;
}

}  // namespace

double SupernodeIndex::cell_km_for(std::size_t fleet_size) {
  if (fleet_size == 0) return 150.0;
  return std::clamp(150.0 * std::sqrt(600.0 / static_cast<double>(fleet_size)), 25.0, 150.0);
}

std::int64_t SupernodeIndex::cell_of(double v) const {
  return static_cast<std::int64_t>(std::floor(v / cell_km_));
}

std::size_t SupernodeIndex::cell_index(const net::GeoPoint& p) const {
  return static_cast<std::size_t>((cell_of(p.y_km) - min_cy_) * width_ +
                                  (cell_of(p.x_km) - min_cx_));
}

void SupernodeIndex::rebuild(const std::vector<net::GeoPoint>& positions,
                             const std::vector<SupernodeState>& fleet) {
  CLOUDFOG_REQUIRE(positions.size() == fleet.size(), "one position per fleet node");
  cell_km_ = cell_km_for(positions.size());
  cell_start_.clear();
  cell_accepting_.clear();
  slot_pos_.clear();
  slot_node_.clear();
  slot_accepting_.clear();
  node_slot_.clear();
  flagged_.clear();
  flagged_pos_.clear();
  min_cx_ = min_cy_ = 0;
  max_cx_ = max_cy_ = -1;
  width_ = 0;
  if (positions.empty()) return;

  min_cx_ = min_cy_ = std::numeric_limits<std::int64_t>::max();
  max_cx_ = max_cy_ = std::numeric_limits<std::int64_t>::min();
  for (const net::GeoPoint& p : positions) {
    const std::int64_t cx = cell_of(p.x_km);
    const std::int64_t cy = cell_of(p.y_km);
    min_cx_ = std::min(min_cx_, cx);
    max_cx_ = std::max(max_cx_, cx);
    min_cy_ = std::min(min_cy_, cy);
    max_cy_ = std::max(max_cy_, cy);
  }
  width_ = max_cx_ - min_cx_ + 1;
  const std::int64_t height = max_cy_ - min_cy_ + 1;
  const std::int64_t cells = width_ * height;
  // Positions come from the bounded geo plane; a runaway extent would turn
  // the dense layout into a memory bomb — fail loudly instead.
  CLOUDFOG_REQUIRE(cells <= (std::int64_t{1} << 24), "grid extent too large for dense cells");

  // CSR build: count per cell, exclusive prefix, then fill.
  cell_start_.assign(static_cast<std::size_t>(cells) + 1, 0);
  for (const net::GeoPoint& p : positions) ++cell_start_[cell_index(p) + 1];
  for (std::size_t c = 1; c < cell_start_.size(); ++c) cell_start_[c] += cell_start_[c - 1];
  slot_pos_.resize(positions.size());
  slot_node_.resize(positions.size());
  node_slot_.resize(positions.size());
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::uint32_t slot = cursor[cell_index(positions[i])]++;
    slot_pos_[slot] = positions[i];
    slot_node_[slot] = static_cast<std::uint32_t>(i);
    node_slot_[i] = slot;
  }
  slot_accepting_.resize(positions.size());
  flagged_pos_.resize(positions.size());
  cell_accepting_.resize(static_cast<std::size_t>(cells));
  resync(fleet);
}

void SupernodeIndex::flag(std::uint32_t slot, std::size_t c) {
  slot_accepting_[slot] = 1;
  ++cell_accepting_[c];
  flagged_pos_[slot] = static_cast<std::uint32_t>(flagged_.size());
  flagged_.push_back(slot);
}

void SupernodeIndex::unflag(std::uint32_t slot, std::size_t c) {
  slot_accepting_[slot] = 0;
  --cell_accepting_[c];
  // Swap-remove: the list's last slot takes this slot's place.
  const std::uint32_t last = flagged_.back();
  flagged_[flagged_pos_[slot]] = last;
  flagged_pos_[last] = flagged_pos_[slot];
  flagged_.pop_back();
}

void SupernodeIndex::note(const std::vector<SupernodeState>& fleet, std::size_t idx) {
  const std::uint32_t slot = node_slot_[idx];
  if (slot_accepting_[slot] || !fleet[idx].accepting()) return;
  flag(slot, cell_index(slot_pos_[slot]));
}

void SupernodeIndex::resync(const std::vector<SupernodeState>& fleet) {
  CLOUDFOG_REQUIRE(fleet.size() == slot_node_.size(), "index stale: fleet size changed");
  std::fill(slot_accepting_.begin(), slot_accepting_.end(), 0);
  std::fill(cell_accepting_.begin(), cell_accepting_.end(), 0);
  flagged_.clear();
  for (std::size_t c = 0; c < cell_accepting_.size(); ++c) {
    for (std::uint32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
      if (fleet[slot_node_[k]].accepting()) flag(k, c);
    }
  }
}

void SupernodeIndex::scan_cell(std::int64_t cx, std::int64_t cy, const net::GeoPoint& from,
                               const std::vector<SupernodeState>& fleet) {
  const std::size_t c =
      static_cast<std::size_t>((cy - min_cy_) * width_ + (cx - min_cx_));
  if (cell_accepting_[c] == 0) return;
  const std::uint32_t end = cell_start_[c + 1];
  for (std::uint32_t k = cell_start_[c]; k < end; ++k) {
    if (!slot_accepting_[k]) continue;
    const std::uint32_t idx = slot_node_[k];
    if (!fleet[idx].accepting()) {
      // Left accepting since it was flagged (claimed, crashed, parked):
      // clear lazily, no write site had to report it.
      unflag(k, c);
      continue;
    }
    scratch_.emplace_back(net::distance_km(from, slot_pos_[k]), static_cast<std::size_t>(idx));
  }
}

void SupernodeIndex::scan_flagged(const net::GeoPoint& from,
                                  const std::vector<SupernodeState>& fleet) {
  // From the back, so a swap-remove only moves an already visited slot.
  for (std::size_t i = flagged_.size(); i-- > 0;) {
    const std::uint32_t k = flagged_[i];
    const std::uint32_t idx = slot_node_[k];
    if (!fleet[idx].accepting()) {
      unflag(k, cell_index(slot_pos_[k]));
      continue;
    }
    scratch_.emplace_back(net::distance_km(from, slot_pos_[k]), static_cast<std::size_t>(idx));
  }
}

void SupernodeIndex::nearest_accepting(const net::GeoPoint& from,
                                       const std::vector<SupernodeState>& fleet,
                                       std::size_t count, std::vector<std::size_t>& out) {
  out.clear();
  if (count == 0 || slot_node_.empty()) return;
  CLOUDFOG_REQUIRE(fleet.size() == slot_node_.size(), "index stale: fleet size changed");

  scratch_.clear();
  const std::int64_t cx = cell_of(from.x_km);
  const std::int64_t cy = cell_of(from.y_km);
  // Ring at which the entire populated bounding box has been visited.
  const std::int64_t last_ring =
      std::max(std::max(std::abs(min_cx_ - cx), std::abs(max_cx_ - cx)),
               std::max(std::abs(min_cy_ - cy), std::abs(max_cy_ - cy)));
  // Ring r lies outside the (2r-1)-cell box centred on the query cell, so
  // its nodes are at least (r-1)·cell + edge away, edge being the query
  // point's distance to its own cell's border (less a millimetre of slack
  // for the rounding in cell_of).
  const double fx = from.x_km - static_cast<double>(cx) * cell_km_;
  const double fy = from.y_km - static_cast<double>(cy) * cell_km_;
  const double edge =
      std::max(0.0, std::min({fx, cell_km_ - fx, fy, cell_km_ - fy}) - 1e-6);
  double kth = std::numeric_limits<double>::infinity();
  std::size_t visited = 0;  // cells read so far
  for (std::int64_t r = 0; r <= last_ring; ++r) {
    // Once that lower bound strictly exceeds the current k-th best
    // distance, no farther ring can improve or even tie-break the result.
    if (scratch_.size() >= count && r >= 1 &&
        static_cast<double>(r - 1) * cell_km_ + edge > kth)
      break;
    // Drained fleet: the rings have cost as many reads as there are
    // flagged slots, so reading those slots directly is now cheaper than
    // going on. The list holds every flagged slot, the ring partials
    // included, so start over from it.
    if (visited >= flagged_.size()) {
      scratch_.clear();
      scan_flagged(from, fleet);
      break;
    }
    const std::size_t before = scratch_.size();
    if (r == 0) {
      if (cx >= min_cx_ && cx <= max_cx_ && cy >= min_cy_ && cy <= max_cy_) {
        scan_cell(cx, cy, from, fleet);
        ++visited;
      }
    } else {
      // Ring perimeter clamped to the populated bounding box: rows outside
      // [min_cy_, max_cy_] and columns outside [min_cx_, max_cx_] hold no
      // cells, so they cost nothing.
      const std::int64_t x0 = std::max(cx - r, min_cx_);
      const std::int64_t x1 = std::min(cx + r, max_cx_);
      const auto row_cells = static_cast<std::size_t>(std::max<std::int64_t>(0, x1 - x0 + 1));
      if (cy - r >= min_cy_ && cy - r <= max_cy_) {
        for (std::int64_t x = x0; x <= x1; ++x) scan_cell(x, cy - r, from, fleet);
        visited += row_cells;
      }
      if (cy + r >= min_cy_ && cy + r <= max_cy_) {
        for (std::int64_t x = x0; x <= x1; ++x) scan_cell(x, cy + r, from, fleet);
        visited += row_cells;
      }
      const std::int64_t y0 = std::max(cy - r + 1, min_cy_);
      const std::int64_t y1 = std::min(cy + r - 1, max_cy_);
      const auto column_cells = static_cast<std::size_t>(std::max<std::int64_t>(0, y1 - y0 + 1));
      if (cx - r >= min_cx_ && cx - r <= max_cx_) {
        for (std::int64_t y = y0; y <= y1; ++y) scan_cell(cx - r, y, from, fleet);
        visited += column_cells;
      }
      if (cx + r >= min_cx_ && cx + r <= max_cx_) {
        for (std::int64_t y = y0; y <= y1; ++y) scan_cell(cx + r, y, from, fleet);
        visited += column_cells;
      }
    }
    // Re-derive the k-th best only when this ring contributed candidates —
    // in the saturated regime rings are many and mostly empty, and an
    // O(|scratch|) selection per ring would swamp the scan itself.
    if (scratch_.size() >= count && scratch_.size() != before) {
      const auto kth_it = scratch_.begin() + static_cast<std::ptrdiff_t>(count) - 1;
      std::nth_element(scratch_.begin(), kth_it, scratch_.end(), closer);
      kth = kth_it->first;
    }
  }

  const std::size_t take = std::min(count, scratch_.size());
  std::partial_sort(scratch_.begin(), scratch_.begin() + static_cast<std::ptrdiff_t>(take),
                    scratch_.end(), closer);
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(scratch_[i].second);
}

}  // namespace cloudfog::core
