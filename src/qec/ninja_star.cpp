#include "qec/ninja_star.h"

#include <stdexcept>

#include "circuit/bug_plant.h"

namespace qpf::qec {

namespace {

std::array<std::uint16_t, 4> group_masks(const std::vector<Check>& checks,
                                         int first_ancilla) {
  std::array<std::uint16_t, 4> masks{};
  for (const Check& check : checks) {
    const int offset = check.ancilla - first_ancilla;
    if (offset >= 0 && offset < 4) {
      masks[static_cast<std::size_t>(offset)] = check.mask;
    }
  }
  return masks;
}

// Transversal pairing when the two lattices are rotated relative to
// each other (§2.6.1): CNOTs run between (A_Dn, B_pair[n]).
constexpr std::array<int, 9> kRotatedPairing{6, 3, 0, 7, 4, 1, 8, 5, 2};

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

namespace {
constexpr std::uint16_t kLogicalXChainMask = 0b001010100;  // D2, D4, D6
constexpr std::uint16_t kLogicalZChainMask = 0b100010001;  // D0, D4, D8
}  // namespace

NinjaStar::NinjaStar(Qubit base, const Sc17Layout* layout)
    : base_(base),
      layout_(layout),
      lut_low_(group_masks(layout->checks(), 0)),
      lut_high_(group_masks(layout->checks(), 4)),
      lut_low_injection_(group_masks(layout->checks(), 0), 9,
                         kLogicalXChainMask),
      lut_high_injection_(group_masks(layout->checks(), 4), 9,
                          kLogicalZChainMask) {
  if (layout == nullptr) {
    throw std::invalid_argument("NinjaStar: null layout");
  }
}

Circuit NinjaStar::reset_circuit() const {
  Circuit circuit{"reset_L"};
  TimeSlot slot;
  for (int d = 0; d < static_cast<int>(Sc17Layout::kNumData); ++d) {
    slot.add(Operation{GateType::kPrepZ, Sc17Layout::data_qubit(base_, d)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

Circuit NinjaStar::logical_x_circuit() const {
  Circuit circuit{"x_L"};
  TimeSlot slot;
  for (int d : layout_->logical_x_data(orientation_)) {
    slot.add(Operation{GateType::kX, Sc17Layout::data_qubit(base_, d)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

Circuit NinjaStar::logical_z_circuit() const {
  Circuit circuit{"z_L"};
  TimeSlot slot;
  for (int d : layout_->logical_z_data(orientation_)) {
    slot.add(Operation{GateType::kZ, Sc17Layout::data_qubit(base_, d)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

Circuit NinjaStar::logical_h_circuit() const {
  Circuit circuit{"h_L"};
  TimeSlot slot;
  for (int d = 0; d < static_cast<int>(Sc17Layout::kNumData); ++d) {
    slot.add(Operation{GateType::kH, Sc17Layout::data_qubit(base_, d)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

Circuit NinjaStar::measure_circuit() const {
  Circuit circuit{"measure_L"};
  TimeSlot slot;
  for (int d = 0; d < static_cast<int>(Sc17Layout::kNumData); ++d) {
    slot.add(Operation{GateType::kMeasureZ, Sc17Layout::data_qubit(base_, d)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
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
    stabilizer = layout_->logical_stabilizer_circuit(
        base_, basis, Sc17Layout::ancilla_qubit(base_, 0), orientation_);
  }
  return stabilizer;
}

Circuit NinjaStar::logical_cnot_circuit(const NinjaStar& control,
                                        const NinjaStar& target) {
  Circuit circuit{"cnot_L"};
  TimeSlot slot;
  const bool same = control.orientation_ == target.orientation_;
  for (int n = 0; n < 9; ++n) {
    const int m = same ? n : kRotatedPairing[static_cast<std::size_t>(n)];
    slot.add(Operation{GateType::kCnot,
                       Sc17Layout::data_qubit(control.base_, n),
                       Sc17Layout::data_qubit(target.base_, m)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

Circuit NinjaStar::logical_cz_circuit(const NinjaStar& a, const NinjaStar& b) {
  Circuit circuit{"cz_L"};
  TimeSlot slot;
  // Note the inverted rule relative to CNOT_L (§2.6.1): equal
  // orientations pair rotated, different orientations pair straight.
  const bool same = a.orientation_ == b.orientation_;
  for (int n = 0; n < 9; ++n) {
    const int m = same ? kRotatedPairing[static_cast<std::size_t>(n)] : n;
    slot.add(Operation{GateType::kCz, Sc17Layout::data_qubit(a.base_, n),
                       Sc17Layout::data_qubit(b.base_, m)});
  }
  circuit.append_slot(std::move(slot));
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

std::array<const Check*, 4> NinjaStar::group(CheckType t) const {
  std::array<const Check*, 4> out{};
  std::size_t i = 0;
  for (const Check& check : layout_->checks()) {
    if (check.effective_type(orientation_) == t) {
      out.at(i++) = &check;
    }
  }
  if (i != 4) {
    throw std::logic_error("NinjaStar: malformed check groups");
  }
  return out;
}

unsigned NinjaStar::extract(Syndrome s, const std::array<const Check*, 4>& g) {
  unsigned out = 0;
  for (unsigned bit = 0; bit < 4; ++bit) {
    if (s & (1u << g[bit]->ancilla)) {
      out |= 1u << bit;
    }
  }
  return out;
}

const LutDecoder& NinjaStar::lut(CheckType basis) const {
  const auto g = group(basis);
  return g[0]->ancilla < 4 ? lut_low_ : lut_high_;
}

std::array<int, 4> NinjaStar::group_ancillas(CheckType basis) const {
  const auto g = group(basis);
  std::array<int, 4> out{};
  for (std::size_t bit = 0; bit < 4; ++bit) {
    out[bit] = g[bit]->ancilla;
  }
  return out;
}

std::vector<Operation> NinjaStar::decode_window(Syndrome r1, Syndrome r2) {
  std::vector<Operation> corrections;
  Syndrome new_carry = r2;
  for (const CheckType check_basis : {CheckType::kZ, CheckType::kX}) {
    const auto g = group(check_basis);
    // The LUT is tied to the ancilla hardware group, not the basis.
    const LutDecoder& lut = g[0]->ancilla < 4 ? lut_low_ : lut_high_;
    const unsigned s0 = extract(carried_, g);
    const unsigned s1 = extract(r1, g);
    const unsigned s2 = extract(r2, g);
    // mutation hook 8: the agreement window slides one round back,
    // comparing the carried round against r1 instead of r1 vs r2.
    if (plant::bug(8) ? s0 != s1 : s1 != s2) {
      // The two rounds disagree: either a measurement error or an error
      // that struck mid-round (seen by only part of the group).  Acting
      // now on partial information can walk a correction chain into a
      // logical operator, so defer; r2 is carried into the next window,
      // where a real error shows consistently in all three rounds.
      continue;
    }
    const unsigned voted = majority_syndrome(s0, s1, s2);
    const std::vector<int>& data = lut.decode(voted);
    // Z checks flag X errors and vice versa.
    const GateType fix = check_basis == CheckType::kZ ? GateType::kX
                                                      : GateType::kZ;
    for (int d : data) {
      corrections.emplace_back(fix, Sc17Layout::data_qubit(base_, d));
    }
    // Applying the corrections flips their syndrome bits from the next
    // round on; fold that into the carried word.
    const unsigned sig = lut.signature(data);
    for (unsigned bit = 0; bit < 4; ++bit) {
      if (sig & (1u << bit)) {
        new_carry = static_cast<Syndrome>(new_carry ^
                                          (1u << g[bit]->ancilla));
      }
    }
  }
  carried_ = new_carry;
  return merge_corrections(std::move(corrections));
}

std::vector<Operation> NinjaStar::decode_initialization(Syndrome round) {
  std::vector<Operation> corrections;
  for (const CheckType check_basis : {CheckType::kZ, CheckType::kX}) {
    const auto g = group(check_basis);
    const LutDecoder& lut = g[0]->ancilla < 4 ? lut_low_ : lut_high_;
    const unsigned s = extract(round, g);
    const GateType fix =
        check_basis == CheckType::kZ ? GateType::kX : GateType::kZ;
    for (int d : lut.decode(s)) {
      corrections.emplace_back(fix, Sc17Layout::data_qubit(base_, d));
    }
  }
  // The LUT corrections reproduce the observed syndromes exactly, so
  // the post-correction syndrome is ideal.
  carried_ = 0;
  return merge_corrections(std::move(corrections));
}

std::vector<Operation> NinjaStar::decode_gauge(Syndrome round,
                                               CheckType gauge_basis) {
  const auto g = group(gauge_basis);
  const LutDecoder& lut = g[0]->ancilla < 4 ? lut_low_ : lut_high_;
  const unsigned s = extract(round, g);
  const GateType fix =
      gauge_basis == CheckType::kZ ? GateType::kX : GateType::kZ;
  std::vector<Operation> corrections;
  for (int d : lut.decode(s)) {
    corrections.emplace_back(fix, Sc17Layout::data_qubit(base_, d));
  }
  // Carry: gauge group cleared by construction, deferred group keeps
  // the observed bits for the next window.
  Syndrome carried = 0;
  for (const Check* check : group(gauge_basis == CheckType::kZ
                                      ? CheckType::kX
                                      : CheckType::kZ)) {
    carried = static_cast<Syndrome>(
        carried | (round & (1u << check->ancilla)));
  }
  carried_ = carried;
  return corrections;
}

std::vector<Operation> NinjaStar::decode_injection(Syndrome round) {
  if (orientation_ != Orientation::kNormal) {
    throw std::logic_error("decode_injection: normal orientation required");
  }
  std::vector<Operation> corrections;
  for (const CheckType check_basis : {CheckType::kZ, CheckType::kX}) {
    const auto g = group(check_basis);
    const LutDecoder& lut =
        g[0]->ancilla < 4 ? lut_low_injection_ : lut_high_injection_;
    const unsigned s = extract(round, g);
    const GateType fix =
        check_basis == CheckType::kZ ? GateType::kX : GateType::kZ;
    for (int d : lut.decode(s)) {
      corrections.emplace_back(fix, Sc17Layout::data_qubit(base_, d));
    }
  }
  carried_ = 0;
  return merge_corrections(std::move(corrections));
}

std::vector<int> NinjaStar::decode_partial_round(Syndrome syndrome) {
  const auto g = group(CheckType::kZ);
  const LutDecoder& lut = g[0]->ancilla < 4 ? lut_low_ : lut_high_;
  const unsigned s = extract(syndrome, g);
  return lut.decode(s);
}

Syndrome NinjaStar::signature(const std::vector<int>& data_locals,
                              CheckType error_basis) const {
  // An X error flips the effective-Z checks; a Z error the effective-X.
  const CheckType flagged =
      error_basis == CheckType::kX ? CheckType::kZ : CheckType::kX;
  const auto g = group(flagged);
  const LutDecoder& lut = g[0]->ancilla < 4 ? lut_low_ : lut_high_;
  const unsigned sig = lut.signature(data_locals);
  Syndrome out = 0;
  for (unsigned bit = 0; bit < 4; ++bit) {
    if (sig & (1u << bit)) {
      out = static_cast<Syndrome>(out | (1u << g[bit]->ancilla));
    }
  }
  return out;
}

void NinjaStar::save(journal::SnapshotWriter& out) const {
  out.tag("ninja-star");
  out.write_u32(base_);
  out.write_u8(static_cast<std::uint8_t>(orientation_));
  out.write_u8(static_cast<std::uint8_t>(dance_));
  out.write_u8(static_cast<std::uint8_t>(state_));
  out.write_u8(carried_);
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
  carried_ = in.read_u8();
}

}  // namespace qpf::qec
