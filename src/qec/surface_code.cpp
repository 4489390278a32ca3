#include "qec/surface_code.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "circuit/error.h"

namespace qpf::qec {

namespace {

[[nodiscard]] constexpr CheckType site_type(int i, int j) noexcept {
  return (i + j) % 2 == 0 ? CheckType::kX : CheckType::kZ;
}

}  // namespace

SurfaceCodeLayout::SurfaceCodeLayout(int distance, CnotPattern pattern)
    : SurfaceCodeLayout(distance, distance, pattern) {}

SurfaceCodeLayout::SurfaceCodeLayout(int rows, int cols, CnotPattern pattern)
    : rows_(rows), cols_(cols) {
  if (rows < 3 || rows % 2 == 0 || cols < 3 || cols % 2 == 0) {
    throw StackConfigError("SurfaceCodeLayout",
                           "rows and cols must be odd and >= 3");
  }
  // Data qubit (r, c), row-major; -1 outside the patch.
  const auto data_at = [this](int r, int c) {
    return r >= 0 && r < rows_ && c >= 0 && c < cols_ ? r * cols_ + c : -1;
  };
  // NW, NE, SW, SE data qubits of corner site (i, j): ascending.
  const auto corners = [&](int i, int j) {
    return std::array<int, 4>{data_at(i - 1, j - 1), data_at(i - 1, j),
                              data_at(i, j - 1), data_at(i, j)};
  };
  const auto add_site = [&](int i, int j) {
    SurfaceCheck check;
    check.type = site_type(i, j);
    check.site_i = i;
    check.site_j = j;
    const auto [nw, ne, sw, se] = corners(i, j);
    if (check.type == CheckType::kX || pattern == CnotPattern::kSameS) {
      check.data = {ne, nw, se, sw};  // the S pattern of Fig 2.2
    } else {
      check.data = {ne, se, nw, sw};  // the Z pattern of Fig 2.3
    }
    for (int q : {nw, ne, sw, se}) {
      if (q >= 0) {
        check.support.push_back(q);
      }
    }
    checks_.push_back(std::move(check));
  };

  // Keep the code's check sites: the X checks first, then the Z checks,
  // each ordered by its lowest data qubit — Table 5.8's numbering at
  // d = 3 (row-major site order would swap X ancillas 0 and 1).  Two
  // same-basis checks never share their lowest data qubit.
  checks_.reserve(num_data() - 1);
  std::vector<std::array<int, 3>> sites;  // {lowest data qubit, i, j}
  sites.reserve(num_data());
  for (CheckType pass : {CheckType::kX, CheckType::kZ}) {
    sites.clear();
    for (int i = 0; i <= rows_; ++i) {
      for (int j = 0; j <= cols_; ++j) {
        if (site_type(i, j) != pass) {
          continue;
        }
        const bool interior =
            i >= 1 && i <= rows_ - 1 && j >= 1 && j <= cols_ - 1;
        const bool top = i == 0 && j >= 1 && j <= cols_ - 1;
        const bool bottom = i == rows_ && j >= 1 && j <= cols_ - 1;
        const bool left = j == 0 && i >= 1 && i <= rows_ - 1;
        const bool right = j == cols_ && i >= 1 && i <= rows_ - 1;
        const bool keep =
            interior ||
            (pass == CheckType::kX && (top || bottom)) ||
            (pass == CheckType::kZ && (left || right));
        if (keep) {
          const std::array<int, 4> around = corners(i, j);
          sites.push_back({*std::find_if(around.begin(), around.end(),
                                         [](int q) { return q >= 0; }),
                           i, j});
        }
      }
    }
    std::sort(sites.begin(), sites.end());
    for (const std::array<int, 3>& site : sites) {
      add_site(site[1], site[2]);
    }
  }
  if (checks_.size() != num_data() - 1) {
    throw std::logic_error("SurfaceCodeLayout: malformed check set");
  }
  for (std::size_t k = 0; k < checks_.size(); ++k) {
    checks_[k].ancilla = static_cast<int>(k);
    (checks_[k].type == CheckType::kX ? x_checks_ : z_checks_)
        .push_back(static_cast<int>(k));
  }
  if (rows_ == cols_) {
    for (int k = 0; k < rows_; ++k) {
      diagonal_.push_back(data_at(k, k));
      anti_diagonal_.push_back(data_at(k, cols_ - 1 - k));
    }
  }
}

const std::vector<int>& SurfaceCodeLayout::logical_x_data(
    Orientation o) const {
  if (diagonal_.empty()) {
    throw std::logic_error(
        "SurfaceCodeLayout: logical chains need a square patch");
  }
  return o == Orientation::kNormal ? anti_diagonal_ : diagonal_;
}

const std::vector<int>& SurfaceCodeLayout::logical_z_data(
    Orientation o) const {
  return logical_x_data(flip(o));
}

int SurfaceCodeLayout::rotated_partner(int data) const {
  if (rows_ != cols_ || data < 0 || data >= rows_ * cols_) {
    throw std::out_of_range("SurfaceCodeLayout: no rotated partner");
  }
  const int r = data / cols_;
  const int c = data % cols_;
  return (rows_ - 1 - c) * cols_ + r;
}

Circuit SurfaceCodeLayout::esm_circuit(Qubit base, Orientation orientation,
                                       DanceMode dance) const {
  Circuit circuit{"esm"};
  // Partition the ancillas by their effective basis this round.
  std::vector<const SurfaceCheck*> x_checks;
  std::vector<const SurfaceCheck*> z_checks;
  for (const SurfaceCheck& check : checks_) {
    if (check.effective_type(orientation) == CheckType::kX) {
      if (dance == DanceMode::kAll) {
        x_checks.push_back(&check);
      }
    } else {
      z_checks.push_back(&check);
    }
  }
  const auto ancilla = [&](const SurfaceCheck* check) {
    return ancilla_qubit(base, check->ancilla);
  };

  // Slot 1: reset the X ancillas (Table 5.8).  Slots left empty in
  // dance mode kZOnly are dropped by close_slot().
  for (const SurfaceCheck* check : x_checks) {
    circuit.push_op(Operation{GateType::kPrepZ, ancilla(check)});
  }
  circuit.close_slot();
  // Slot 2: reset the Z ancillas and put the X ancillas in |+>.
  for (const SurfaceCheck* check : z_checks) {
    circuit.push_op(Operation{GateType::kPrepZ, ancilla(check)});
  }
  for (const SurfaceCheck* check : x_checks) {
    circuit.push_op(Operation{GateType::kH, ancilla(check)});
  }
  circuit.close_slot();
  // Slots 3-6: the interleaved CNOT schedule.
  for (std::size_t cnot_slot = 0; cnot_slot < 4; ++cnot_slot) {
    for (const SurfaceCheck* check : x_checks) {
      const int d = check->data[cnot_slot];
      if (d >= 0) {
        circuit.push_op(
            Operation{GateType::kCnot, ancilla(check), data_qubit(base, d)});
      }
    }
    for (const SurfaceCheck* check : z_checks) {
      const int d = check->data[cnot_slot];
      if (d >= 0) {
        circuit.push_op(
            Operation{GateType::kCnot, data_qubit(base, d), ancilla(check)});
      }
    }
    circuit.close_slot();
  }
  // Slot 7: rotate the X ancillas back to the computational basis.
  for (const SurfaceCheck* check : x_checks) {
    circuit.push_op(Operation{GateType::kH, ancilla(check)});
  }
  circuit.close_slot();
  // Slot 8: measure every dancing ancilla.
  for (int a : esm_measurement_order(orientation, dance)) {
    circuit.push_op(Operation{GateType::kMeasureZ, ancilla_qubit(base, a)});
  }
  circuit.close_slot();
  return circuit;
}

std::vector<int> SurfaceCodeLayout::esm_measurement_order(
    Orientation orientation, DanceMode dance) const {
  std::vector<int> order;
  for (const SurfaceCheck& check : checks_) {
    if (dance == DanceMode::kAll ||
        check.effective_type(orientation) == CheckType::kZ) {
      order.push_back(check.ancilla);
    }
  }
  return order;
}

Circuit SurfaceCodeLayout::transversal_circuit(GateType gate, Qubit base,
                                               std::string name) const {
  Circuit circuit{std::move(name)};
  for (std::size_t q = 0; q < num_data(); ++q) {
    circuit.push_op(Operation{gate, data_qubit(base, static_cast<int>(q))});
  }
  circuit.close_slot();
  return circuit;
}

Circuit SurfaceCodeLayout::logical_stabilizer_circuit(
    Qubit base, CheckType basis, Orientation orientation) const {
  Circuit circuit{basis == CheckType::kZ ? "logical-z-stabilizer"
                                         : "logical-x-stabilizer"};
  const Qubit ancilla = ancilla_qubit(base, 0);
  circuit.append_in_new_slot(Operation{GateType::kPrepZ, ancilla});
  if (basis == CheckType::kZ) {
    // Fig 5.10a: Z-chain parity into the ancilla (detects X_L errors).
    for (int d : logical_z_data(orientation)) {
      circuit.append_in_new_slot(
          Operation{GateType::kCnot, data_qubit(base, d), ancilla});
    }
  } else {
    // Fig 5.10b: X-chain parity via a |+>-basis ancilla (detects Z_L).
    circuit.append_in_new_slot(Operation{GateType::kH, ancilla});
    for (int d : logical_x_data(orientation)) {
      circuit.append_in_new_slot(
          Operation{GateType::kCnot, ancilla, data_qubit(base, d)});
    }
    circuit.append_in_new_slot(Operation{GateType::kH, ancilla});
  }
  circuit.append_in_new_slot(Operation{GateType::kMeasureZ, ancilla});
  return circuit;
}

// ----------------------------------------------------------------------
// MatchingDecoder
// ----------------------------------------------------------------------

MatchingDecoder::MatchingDecoder(const SurfaceCodeLayout& layout,
                                 CheckType basis)
    : basis_(basis) {
  const std::vector<int>& group = layout.checks_of(basis);
  group_size_ = group.size();
  // Group position of every check index, for signature building.
  std::vector<int> position(layout.num_checks(), -1);
  for (std::size_t g = 0; g < group.size(); ++g) {
    position[static_cast<std::size_t>(group[g])] = static_cast<int>(g);
  }
  // Per-data signatures and the defect-graph edges.
  data_signature_.assign(layout.num_data(), {});
  struct Edge {
    int a;
    int b;  // group positions; group_size_ = boundary
    int data;
  };
  std::vector<Edge> edges;
  const int boundary = static_cast<int>(group_size_);
  for (std::size_t q = 0; q < layout.num_data(); ++q) {
    std::vector<int>& sig = data_signature_[q];
    for (std::size_t k = 0; k < layout.num_checks(); ++k) {
      const SurfaceCheck& check = layout.checks()[k];
      if (check.type != basis) {
        continue;
      }
      if (std::find(check.support.begin(), check.support.end(),
                    static_cast<int>(q)) != check.support.end()) {
        sig.push_back(position[k]);
      }
    }
    if (sig.empty() || sig.size() > 2) {
      throw std::logic_error("MatchingDecoder: malformed data adjacency");
    }
    if (sig.size() == 2) {
      edges.push_back({sig[0], sig[1], static_cast<int>(q)});
    } else {
      edges.push_back({sig[0], boundary, static_cast<int>(q)});
    }
  }
  // All-pairs BFS over the defect graph (nodes: group + boundary).
  const std::size_t nodes = group_size_ + 1;
  std::vector<std::vector<std::pair<int, int>>> adjacency(nodes);  // (to, data)
  for (const Edge& edge : edges) {
    adjacency[static_cast<std::size_t>(edge.a)].push_back({edge.b, edge.data});
    adjacency[static_cast<std::size_t>(edge.b)].push_back({edge.a, edge.data});
  }
  dist_.assign(nodes, std::vector<int>(nodes, -1));
  path_.assign(nodes, std::vector<std::vector<int>>(nodes));
  for (std::size_t start = 0; start < nodes; ++start) {
    std::vector<int> previous_node(nodes, -1);
    std::vector<int> previous_data(nodes, -1);
    auto& dist = dist_[start];
    dist[start] = 0;
    std::deque<int> queue{static_cast<int>(start)};
    while (!queue.empty()) {
      const int node = queue.front();
      queue.pop_front();
      for (const auto& [to, data] : adjacency[static_cast<std::size_t>(node)]) {
        if (dist[static_cast<std::size_t>(to)] >= 0) {
          continue;
        }
        dist[static_cast<std::size_t>(to)] =
            dist[static_cast<std::size_t>(node)] + 1;
        previous_node[static_cast<std::size_t>(to)] = node;
        previous_data[static_cast<std::size_t>(to)] = data;
        queue.push_back(to);
      }
    }
    for (std::size_t target = 0; target < nodes; ++target) {
      if (dist[target] <= 0) {
        continue;
      }
      std::vector<int>& chain = path_[start][target];
      for (int node = static_cast<int>(target); node != static_cast<int>(start);
           node = previous_node[static_cast<std::size_t>(node)]) {
        chain.push_back(previous_data[static_cast<std::size_t>(node)]);
      }
    }
  }
}

int MatchingDecoder::chain_length(int from, int to) const {
  const int a = from == kBoundary ? static_cast<int>(group_size_) : from;
  const int b = to == kBoundary ? static_cast<int>(group_size_) : to;
  return dist_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

const std::vector<int>& MatchingDecoder::chain(int from, int to) const {
  const int a = from == kBoundary ? static_cast<int>(group_size_) : from;
  const int b = to == kBoundary ? static_cast<int>(group_size_) : to;
  return path_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
}

std::vector<int> MatchingDecoder::decode(
    const std::vector<int>& defects) const {
  for (int defect : defects) {
    if (defect < 0 || defect >= static_cast<int>(group_size_)) {
      throw std::out_of_range("MatchingDecoder: defect out of range");
    }
  }
  std::vector<std::pair<int, int>> pairs;  // second may be kBoundary
  const std::size_t k = defects.size();
  if (k == 0) {
    return {};
  }
  if (k <= 12) {
    // Exact minimum-weight matching by DP over defect subsets.
    const std::size_t full = (std::size_t{1} << k) - 1;
    std::vector<int> cost(full + 1, -1);
    std::vector<std::pair<int, int>> choice(full + 1, {-1, -1});
    cost[0] = 0;
    for (std::size_t mask = 1; mask <= full; ++mask) {
      std::size_t i = 0;
      while (((mask >> i) & 1) == 0) {
        ++i;
      }
      // Option 1: defect i terminates at the boundary.
      const std::size_t rest = mask & ~(std::size_t{1} << i);
      int best = cost[rest] + chain_length(defects[i], kBoundary);
      std::pair<int, int> best_choice{static_cast<int>(i), kBoundary};
      // Option 2: pair defect i with another defect in the subset.
      for (std::size_t j = i + 1; j < k; ++j) {
        if (((mask >> j) & 1) == 0) {
          continue;
        }
        const std::size_t rest2 = rest & ~(std::size_t{1} << j);
        const int candidate =
            cost[rest2] + chain_length(defects[i], defects[j]);
        if (candidate < best) {
          best = candidate;
          best_choice = {static_cast<int>(i), static_cast<int>(j)};
        }
      }
      cost[mask] = best;
      choice[mask] = best_choice;
    }
    std::size_t mask = full;
    while (mask != 0) {
      const auto [i, j] = choice[mask];
      mask &= ~(std::size_t{1} << static_cast<std::size_t>(i));
      if (j == kBoundary) {
        pairs.emplace_back(defects[static_cast<std::size_t>(i)], kBoundary);
      } else {
        mask &= ~(std::size_t{1} << static_cast<std::size_t>(j));
        pairs.emplace_back(defects[static_cast<std::size_t>(i)],
                           defects[static_cast<std::size_t>(j)]);
      }
    }
  } else {
    // Greedy fallback for very dense syndromes.
    std::vector<int> remaining = defects;
    while (!remaining.empty()) {
      int best_i = 0;
      int best_j = kBoundary;
      int best_cost = chain_length(remaining[0], kBoundary);
      for (std::size_t i = 0; i < remaining.size(); ++i) {
        if (chain_length(remaining[i], kBoundary) < best_cost) {
          best_cost = chain_length(remaining[i], kBoundary);
          best_i = static_cast<int>(i);
          best_j = kBoundary;
        }
        for (std::size_t j = i + 1; j < remaining.size(); ++j) {
          if (chain_length(remaining[i], remaining[j]) < best_cost) {
            best_cost = chain_length(remaining[i], remaining[j]);
            best_i = static_cast<int>(i);
            best_j = static_cast<int>(j);
          }
        }
      }
      if (best_j == kBoundary) {
        pairs.emplace_back(remaining[static_cast<std::size_t>(best_i)],
                           kBoundary);
        remaining.erase(remaining.begin() + best_i);
      } else {
        pairs.emplace_back(remaining[static_cast<std::size_t>(best_i)],
                           remaining[static_cast<std::size_t>(best_j)]);
        remaining.erase(remaining.begin() + best_j);
        remaining.erase(remaining.begin() + best_i);
      }
    }
  }
  // Fold the matched chains into a data-qubit correction set (XOR).
  std::vector<char> toggled(data_signature_.size(), 0);
  for (const auto& [a, b] : pairs) {
    for (int q : chain(a, b)) {
      toggled[static_cast<std::size_t>(q)] ^= 1;
    }
  }
  std::vector<int> correction;
  for (std::size_t q = 0; q < toggled.size(); ++q) {
    if (toggled[q]) {
      correction.push_back(static_cast<int>(q));
    }
  }
  return correction;
}

std::vector<int> MatchingDecoder::signature(
    const std::vector<int>& data_locals) const {
  std::vector<char> flipped(group_size_, 0);
  for (int q : data_locals) {
    for (int g : data_signature_.at(static_cast<std::size_t>(q))) {
      flipped[static_cast<std::size_t>(g)] ^= 1;
    }
  }
  std::vector<int> out;
  for (std::size_t g = 0; g < group_size_; ++g) {
    if (flipped[g]) {
      out.push_back(static_cast<int>(g));
    }
  }
  return out;
}

}  // namespace qpf::qec
