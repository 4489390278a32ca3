#include "qec/ninja_star.h"

#include <bit>
#include <stdexcept>
#include <string>

#include "circuit/bug_plant.h"
#include "circuit/error.h"

namespace qpf::qec {

namespace {

// Bitmask over the nine SC17 data qubits.
std::uint16_t chain_mask(const std::vector<int>& data) {
  std::uint16_t mask = 0;
  for (int d : data) {
    mask = static_cast<std::uint16_t>(mask | (1u << d));
  }
  return mask;
}

// LUT check masks of one basis group.
std::array<std::uint16_t, 4> group_masks(const SurfaceCodeLayout& layout,
                                         CheckType type) {
  std::array<std::uint16_t, 4> masks{};
  const std::vector<int>& group = layout.checks_of(type);
  for (std::size_t g = 0; g < group.size(); ++g) {
    masks.at(g) = chain_mask(
        layout.checks()[static_cast<std::size_t>(group[g])].support);
  }
  return masks;
}

// Merge an X and a Z correction on the same qubit into a single Y so the
// whole correction set fits one time slot (the paper's 1-slot
// correction budget, §5.3.2).
std::vector<Operation> merge_corrections(std::vector<Operation> corrections) {
  std::vector<Operation> merged;
  for (const Operation& op : corrections) {
    bool combined = false;
    for (Operation& existing : merged) {
      if (existing.qubit(0) == op.qubit(0)) {
        // The only possible combination is X + Z (each basis decodes
        // at most one Pauli per qubit).
        existing = Operation{GateType::kY, op.qubit(0)};
        combined = true;
        break;
      }
    }
    if (!combined) {
      merged.push_back(op);
    }
  }
  return merged;
}

}  // namespace

NinjaStar::NinjaStar(Qubit base, const SurfaceCodeLayout* layout)
    : base_(base), layout_(layout) {
  if (layout == nullptr) {
    throw std::invalid_argument("NinjaStar: null layout");
  }
  if (layout->rows() != layout->cols() ||
      layout->distance() > kMaxDistance) {
    throw StackConfigError(
        "NinjaStar", "needs a square patch of distance at most " +
                         std::to_string(kMaxDistance));
  }
  group_size_ = static_cast<int>(layout->num_checks() / 2);
  group_mask_ = (Syndrome{1} << group_size_) - 1;
  if (layout->distance() == 3) {
    luts_.reserve(4);
    luts_.emplace_back(group_masks(*layout, CheckType::kX));
    luts_.emplace_back(group_masks(*layout, CheckType::kZ));
    luts_.emplace_back(group_masks(*layout, CheckType::kX), 9,
                       chain_mask(layout->logical_x_data()));
    luts_.emplace_back(group_masks(*layout, CheckType::kZ), 9,
                       chain_mask(layout->logical_z_data()));
  } else {
    matchers_.reserve(2);
    matchers_.emplace_back(*layout, CheckType::kX);
    matchers_.emplace_back(*layout, CheckType::kZ);
  }
}

Circuit NinjaStar::reset_circuit() const {
  return layout_->transversal_circuit(GateType::kPrepZ, base_, "reset_L");
}

Circuit NinjaStar::logical_x_circuit() const {
  Circuit circuit{"x_L"};
  for (int d : layout_->logical_x_data(orientation_)) {
    circuit.push_op(Operation{GateType::kX, layout_->data_qubit(base_, d)});
  }
  circuit.close_slot();
  return circuit;
}

Circuit NinjaStar::logical_z_circuit() const {
  Circuit circuit{"z_L"};
  for (int d : layout_->logical_z_data(orientation_)) {
    circuit.push_op(Operation{GateType::kZ, layout_->data_qubit(base_, d)});
  }
  circuit.close_slot();
  return circuit;
}

Circuit NinjaStar::logical_h_circuit() const {
  return layout_->transversal_circuit(GateType::kH, base_, "h_L");
}

Circuit NinjaStar::measure_circuit() const {
  return layout_->transversal_circuit(GateType::kMeasureZ, base_,
                                      "measure_L");
}

const Circuit& NinjaStar::esm_circuit() const {
  Circuit& esm = esm_[static_cast<std::size_t>(orientation_) * 2 +
                      static_cast<std::size_t>(dance_)];
  if (esm.empty()) {
    esm = layout_->esm_circuit(base_, orientation_, dance_);
  }
  return esm;
}

const std::vector<int>& NinjaStar::esm_measurement_order() const {
  std::vector<int>& order =
      esm_order_[static_cast<std::size_t>(orientation_) * 2 +
                 static_cast<std::size_t>(dance_)];
  if (order.empty()) {
    order = layout_->esm_measurement_order(orientation_, dance_);
  }
  return order;
}

const Circuit& NinjaStar::logical_stabilizer_circuit(CheckType basis) const {
  Circuit& stabilizer =
      stabilizer_[static_cast<std::size_t>(orientation_) * 2 +
                  static_cast<std::size_t>(basis)];
  if (stabilizer.empty()) {
    stabilizer =
        layout_->logical_stabilizer_circuit(base_, basis, orientation_);
  }
  return stabilizer;
}

const std::vector<stab::SparsePauli>& NinjaStar::esm_observables() const {
  std::vector<stab::SparsePauli>& observables =
      esm_observables_[static_cast<std::size_t>(orientation_) * 2 +
                       static_cast<std::size_t>(dance_)];
  if (observables.empty()) {
    const std::vector<int>& order = esm_measurement_order();
    for (const int a : order) {
      const SurfaceCheck& check =
          layout_->checks()[static_cast<std::size_t>(a)];
      const stab::Pauli pauli =
          check.effective_type(orientation_) == CheckType::kX ? stab::Pauli::kX
                                                              : stab::Pauli::kZ;
      stab::SparsePauli parity;
      for (const int d : check.support) {
        parity.terms.push_back({layout_->data_qubit(base_, d), pauli});
      }
      observables.push_back(std::move(parity));
    }
    for (const int a : order) {
      observables.push_back(
          {{{layout_->ancilla_qubit(base_, a), stab::Pauli::kZ}}, false});
    }
  }
  return observables;
}

const std::vector<stab::SparsePauli>& NinjaStar::logical_stabilizer_observables(
    CheckType basis) const {
  std::vector<stab::SparsePauli>& observables =
      stabilizer_observables_[static_cast<std::size_t>(orientation_) * 2 +
                              static_cast<std::size_t>(basis)];
  if (observables.empty()) {
    const bool z = basis == CheckType::kZ;
    stab::SparsePauli chain;
    for (const int d : z ? layout_->logical_z_data(orientation_)
                         : layout_->logical_x_data(orientation_)) {
      chain.terms.push_back({layout_->data_qubit(base_, d),
                             z ? stab::Pauli::kZ : stab::Pauli::kX});
    }
    observables.push_back(std::move(chain));
    observables.push_back(
        {{{layout_->ancilla_qubit(base_, 0), stab::Pauli::kZ}}, false});
  }
  return observables;
}

Circuit NinjaStar::logical_cnot_circuit(const NinjaStar& control,
                                        const NinjaStar& target) {
  Circuit circuit{"cnot_L"};
  const SurfaceCodeLayout& layout = *control.layout_;
  const bool same = control.orientation_ == target.orientation_;
  for (int n = 0; n < static_cast<int>(layout.num_data()); ++n) {
    const int m = same ? n : layout.rotated_partner(n);
    circuit.push_op(Operation{GateType::kCnot,
                              layout.data_qubit(control.base_, n),
                              layout.data_qubit(target.base_, m)});
  }
  circuit.close_slot();
  return circuit;
}

Circuit NinjaStar::logical_cz_circuit(const NinjaStar& a, const NinjaStar& b) {
  Circuit circuit{"cz_L"};
  const SurfaceCodeLayout& layout = *a.layout_;
  // Note the inverted rule relative to CNOT_L (§2.6.1): equal
  // orientations pair rotated, different orientations pair straight.
  const bool same = a.orientation_ == b.orientation_;
  for (int n = 0; n < static_cast<int>(layout.num_data()); ++n) {
    const int m = same ? layout.rotated_partner(n) : n;
    circuit.push_op(Operation{GateType::kCz, layout.data_qubit(a.base_, n),
                              layout.data_qubit(b.base_, m)});
  }
  circuit.close_slot();
  return circuit;
}

void NinjaStar::on_reset() noexcept {
  orientation_ = Orientation::kNormal;
  dance_ = DanceMode::kAll;
  state_ = StateValue::kZero;
  carried_ = 0;
}

void NinjaStar::on_logical_x() noexcept {
  if (state_ == StateValue::kZero) {
    state_ = StateValue::kOne;
  } else if (state_ == StateValue::kOne) {
    state_ = StateValue::kZero;
  }
}

void NinjaStar::on_logical_z() noexcept {
  // Z_L leaves the computational-basis value unchanged.
}

void NinjaStar::on_logical_h() noexcept {
  orientation_ = flip(orientation_);
  state_ = StateValue::kUnknown;
}

void NinjaStar::on_measured(int sign) noexcept {
  dance_ = DanceMode::kZOnly;
  state_ = sign >= 0 ? StateValue::kZero : StateValue::kOne;
}

void NinjaStar::on_logical_cnot(NinjaStar& control,
                                NinjaStar& target) noexcept {
  if (control.state_ == StateValue::kUnknown) {
    target.state_ = StateValue::kUnknown;
  } else if (control.state_ == StateValue::kOne) {
    target.on_logical_x();
  }
}

void NinjaStar::on_logical_cz(NinjaStar& a, NinjaStar& b) noexcept {
  // CZ_L is diagonal in the computational basis: values are unchanged,
  // but superposition states pick up phases the binary tracker cannot
  // represent, so nothing to update unless either value is unknown.
  (void)a;
  (void)b;
}

int NinjaStar::readout_sign(std::uint64_t ones) {
  std::vector<int> flipped;
  for (std::size_t d = 0; d < layout_->num_data(); ++d) {
    if ((ones >> d) & 1u) {
      flipped.push_back(static_cast<int>(d));
    }
  }
  for (int d : decode_partial_round(signature(flipped, CheckType::kX))) {
    ones ^= std::uint64_t{1} << d;
  }
  const int sign = std::popcount(ones) % 2 == 0 ? +1 : -1;
  on_measured(sign);
  return sign;
}

const std::vector<int>& NinjaStar::decode_group(int group, Syndrome bits) {
  if (!luts_.empty()) {
    return luts_[static_cast<std::size_t>(group)].decode(
        static_cast<unsigned>(bits));
  }
  std::vector<int> defects;
  for (int g = 0; g < group_size_; ++g) {
    if ((bits >> g) & 1u) {
      defects.push_back(g);
    }
  }
  matched_ = matchers_[static_cast<std::size_t>(group)].decode(defects);
  return matched_;
}

Syndrome NinjaStar::group_signature(int group,
                                    const std::vector<int>& data) const {
  if (!luts_.empty()) {
    return luts_[static_cast<std::size_t>(group)].signature(data);
  }
  Syndrome bits = 0;
  for (int g : matchers_[static_cast<std::size_t>(group)].signature(data)) {
    bits |= Syndrome{1} << g;
  }
  return bits;
}

void NinjaStar::append_fixes(std::vector<Operation>& out,
                             CheckType check_basis,
                             const std::vector<int>& data) const {
  // Z checks flag X errors and vice versa.
  const GateType fix =
      check_basis == CheckType::kZ ? GateType::kX : GateType::kZ;
  for (int d : data) {
    out.emplace_back(fix, layout_->data_qubit(base_, d));
  }
}

const LutDecoder& NinjaStar::lut(CheckType basis) const {
  if (luts_.empty()) {
    throw std::logic_error("NinjaStar: look-up tables exist at d = 3 only");
  }
  return luts_[static_cast<std::size_t>(group_of(basis))];
}

std::vector<Operation> NinjaStar::decode_window(Syndrome r1, Syndrome r2) {
  std::vector<Operation> corrections;
  Syndrome new_carry = r2;
  for (const CheckType check_basis : {CheckType::kZ, CheckType::kX}) {
    const int group = group_of(check_basis);
    const Syndrome s1 = group_bits(r1, group);
    // mutation hook 8: the agreement window slides one round back,
    // comparing the carried round against r1 instead of r1 vs r2.
    if (s1 != group_bits(plant::bug(8) ? carried_ : r2, group)) {
      // The two rounds disagree: either a measurement error or an error
      // that struck mid-round (seen by only part of the group).  Acting
      // now on partial information can walk a correction chain into a
      // logical operator, so defer; r2 is carried into the next window,
      // where a real error shows consistently in all three rounds.
      continue;
    }
    const std::vector<int>& data = decode_group(group, s1);
    append_fixes(corrections, check_basis, data);
    // Applying the corrections flips their syndrome bits from the next
    // round on; fold that into the carried word.
    new_carry ^= group_signature(group, data) << (group * group_size_);
  }
  carried_ = new_carry;
  return merge_corrections(std::move(corrections));
}

std::vector<Operation> NinjaStar::decode_initialization(Syndrome round) {
  std::vector<Operation> corrections;
  for (const CheckType check_basis : {CheckType::kZ, CheckType::kX}) {
    const int group = group_of(check_basis);
    append_fixes(corrections, check_basis,
                 decode_group(group, group_bits(round, group)));
  }
  // The corrections reproduce the observed syndromes exactly, so the
  // post-correction syndrome is ideal.
  carried_ = 0;
  return merge_corrections(std::move(corrections));
}

std::vector<Operation> NinjaStar::decode_gauge(Syndrome round,
                                               CheckType gauge_basis) {
  const int group = group_of(gauge_basis);
  std::vector<Operation> corrections;
  append_fixes(corrections, gauge_basis,
               decode_group(group, group_bits(round, group)));
  // Carry: gauge group cleared by construction, deferred group keeps
  // the observed bits for the next window.
  const int deferred = 1 - group;
  carried_ = round & (group_mask_ << (deferred * group_size_));
  return corrections;
}

std::vector<Operation> NinjaStar::decode_injection(Syndrome round) {
  if (luts_.empty() || orientation_ != Orientation::kNormal) {
    throw std::logic_error(
        "decode_injection: d = 3 and the normal orientation required");
  }
  std::vector<Operation> corrections;
  for (const CheckType check_basis : {CheckType::kZ, CheckType::kX}) {
    const int group = group_of(check_basis);
    append_fixes(corrections, check_basis,
                 luts_[static_cast<std::size_t>(2 + group)].decode(
                     static_cast<unsigned>(group_bits(round, group))));
  }
  carried_ = 0;
  return merge_corrections(std::move(corrections));
}

std::vector<int> NinjaStar::decode_partial_round(Syndrome syndrome) {
  const int group = group_of(CheckType::kZ);
  return decode_group(group, group_bits(syndrome, group));
}

Syndrome NinjaStar::signature(const std::vector<int>& data_locals,
                              CheckType error_basis) const {
  // An X error flips the effective-Z checks; a Z error the effective-X.
  const int group = group_of(error_basis == CheckType::kX ? CheckType::kZ
                                                          : CheckType::kX);
  return group_signature(group, data_locals) << (group * group_size_);
}

void NinjaStar::save(journal::SnapshotWriter& out) const {
  out.tag("ninja-star");
  out.write_u32(base_);
  out.write_u8(static_cast<std::uint8_t>(orientation_));
  out.write_u8(static_cast<std::uint8_t>(dance_));
  out.write_u8(static_cast<std::uint8_t>(state_));
  for (int byte = 0; byte < carried_bytes(); ++byte) {
    out.write_u8(static_cast<std::uint8_t>(carried_ >> (8 * byte)));
  }
}

void NinjaStar::load(journal::SnapshotReader& in) {
  in.expect_tag("ninja-star");
  const Qubit base = in.read_u32();
  if (base != base_) {
    throw CheckpointError("ninja star snapshot: base qubit mismatch");
  }
  const std::uint8_t orientation = in.read_u8();
  const std::uint8_t dance = in.read_u8();
  const std::uint8_t state = in.read_u8();
  if (orientation > static_cast<std::uint8_t>(Orientation::kRotated) ||
      dance > static_cast<std::uint8_t>(DanceMode::kZOnly) ||
      state > static_cast<std::uint8_t>(StateValue::kUnknown)) {
    throw CheckpointError("ninja star snapshot: invalid property byte");
  }
  orientation_ = static_cast<Orientation>(orientation);
  dance_ = static_cast<DanceMode>(dance);
  state_ = static_cast<StateValue>(state);
  carried_ = 0;
  for (int byte = 0; byte < carried_bytes(); ++byte) {
    carried_ |= Syndrome{in.read_u8()} << (8 * byte);
  }
}

}  // namespace qpf::qec
