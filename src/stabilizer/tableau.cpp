#include "stabilizer/tableau.h"

#include <algorithm>
#include <stdexcept>

#include "circuit/bug_plant.h"
#include "core/bits.h"

namespace qpf::stab {

namespace {
constexpr std::size_t kWordBits = 64;
// z_hint_ bit set while a qubit's Z eigenvalue is untracked; bit 0 is
// the value otherwise.  Flipping bit 0 of an unknown hint leaves it
// unknown, so X and Y flip unconditionally.
constexpr std::uint8_t kUnknownZ = 2;
// kG[x1 z1 x2 z2] = g(x1,z1,x2,z2) mod 4, the exponent of i in the
// product of the Paulis (x1,z1) and (x2,z2) (Aaronson-Gottesman):
//   X: g = z2*(2*x2-1);  Y: g = z2-x2;  Z: g = x2*(1-2*z2).
constexpr unsigned kG[16] = {0, 0, 0, 0,   // I
                             0, 0, 1, 3,   // Z
                             0, 3, 0, 1,   // X
                             0, 1, 3, 0};  // Y
}

Tableau::Tableau(std::size_t num_qubits, std::uint64_t seed)
    : n_(num_qubits),
      cw_((2 * num_qubits + 1 + kWordBits - 1) / kWordBits),
      rng_(seed) {
  if (num_qubits == 0) {
    throw std::invalid_argument("Tableau: zero qubits");
  }
  xs_.assign(n_ * cw_, 0);
  zs_.assign(n_ * cw_, 0);
  rs_.assign(cw_, 0);
  phase_lo_.assign(cw_, 0);
  phase_hi_.assign(cw_, 0);
  targets_.assign(cw_, 0);
  z_hint_.assign(n_, 0);  // |0...0>: +Z_q stabilizes every qubit
  for (std::size_t i = 0; i < n_; ++i) {
    set_x_bit(i, i, true);        // destabilizer i = X_i
    set_z_bit(n_ + i, i, true);   // stabilizer i   = Z_i
  }
}

bool Tableau::x_bit(std::size_t row, std::size_t q) const noexcept {
  return (x_col(q)[row / kWordBits] >> (row % kWordBits)) & 1;
}

bool Tableau::z_bit(std::size_t row, std::size_t q) const noexcept {
  return (z_col(q)[row / kWordBits] >> (row % kWordBits)) & 1;
}

bool Tableau::r_bit(std::size_t row) const noexcept {
  return (rs_[row / kWordBits] >> (row % kWordBits)) & 1;
}

void Tableau::set_x_bit(std::size_t row, std::size_t q, bool v) noexcept {
  const std::uint64_t mask = std::uint64_t{1} << (row % kWordBits);
  std::uint64_t& word = x_col(q)[row / kWordBits];
  word = v ? (word | mask) : (word & ~mask);
}

void Tableau::set_z_bit(std::size_t row, std::size_t q, bool v) noexcept {
  const std::uint64_t mask = std::uint64_t{1} << (row % kWordBits);
  std::uint64_t& word = z_col(q)[row / kWordBits];
  word = v ? (word | mask) : (word & ~mask);
}

void Tableau::set_r_bit(std::size_t row, bool v) noexcept {
  const std::uint64_t mask = std::uint64_t{1} << (row % kWordBits);
  std::uint64_t& word = rs_[row / kWordBits];
  word = v ? (word | mask) : (word & ~mask);
}

// The per-row loops below walk the columns through local pointers and
// a local stride: a store through a column word may alias any member,
// so a loop over x_col(q) would reload xs_, cw_ and n_ on every column.

void Tableau::zero_row(std::size_t row) noexcept {
  const std::size_t w = row / kWordBits;
  const std::uint64_t clear = ~(std::uint64_t{1} << (row % kWordBits));
  std::uint64_t* x = xs_.data() + w;
  std::uint64_t* z = zs_.data() + w;
  const std::size_t cw = cw_;
  for (std::size_t q = n_; q > 0; --q, x += cw, z += cw) {
    *x &= clear;
    *z &= clear;
  }
  rs_[w] &= clear;
}

void Tableau::copy_row(std::size_t dst, std::size_t src) noexcept {
  const std::size_t dw = dst / kWordBits;
  const std::size_t ds = dst % kWordBits;
  const std::size_t sw = src / kWordBits;
  const std::size_t ss = src % kWordBits;
  const std::uint64_t keep = ~(std::uint64_t{1} << ds);
  const auto copy_bit = [=](std::uint64_t* column) {
    column[dw] = (column[dw] & keep) | (((column[sw] >> ss) & 1) << ds);
  };
  std::uint64_t* x = xs_.data();
  std::uint64_t* z = zs_.data();
  const std::size_t cw = cw_;
  for (std::size_t q = n_; q > 0; --q, x += cw, z += cw) {
    copy_bit(x);
    copy_bit(z);
  }
  copy_bit(rs_.data());
}

std::uint64_t Tableau::range_mask(std::size_t w, std::size_t lo,
                                  std::size_t hi) noexcept {
  const std::size_t base = w * kWordBits;
  if (hi <= base || lo >= base + kWordBits) {
    return 0;
  }
  const std::size_t from = lo > base ? lo - base : 0;
  const std::size_t to = hi < base + kWordBits ? hi - base : kWordBits;
  const std::uint64_t upper =
      to == kWordBits ? ~std::uint64_t{0} : ((std::uint64_t{1} << to) - 1);
  const std::uint64_t lower = (std::uint64_t{1} << from) - 1;
  return upper & ~lower;
}

void Tableau::check_qubit(Qubit q) const {
  if (q >= n_) {
    throw std::out_of_range("Tableau: qubit index out of range");
  }
}

void Tableau::rowsum(std::size_t h, std::size_t i) noexcept {
  // Phase exponent of i^k accumulated over all qubits (kG, with row i's
  // Pauli as x1 z1), plus 2*(r_h + r_i); the result is always 0 or 2
  // mod 4.
  const std::size_t hw = h / kWordBits;
  const std::size_t hs = h % kWordBits;
  const std::size_t iw = i / kWordBits;
  const std::size_t is = i % kWordBits;
  unsigned phase = 2 * (static_cast<unsigned>(r_bit(h)) + r_bit(i));
  std::uint64_t* x = xs_.data();
  std::uint64_t* z = zs_.data();
  const std::size_t cw = cw_;
  for (std::size_t q = n_; q > 0; --q, x += cw, z += cw) {
    const std::uint64_t x1 = (x[iw] >> is) & 1;
    const std::uint64_t z1 = (z[iw] >> is) & 1;
    if ((x1 | z1) == 0) {
      continue;  // row i acts as identity on q: no phase, no store
    }
    const std::uint64_t x2 = (x[hw] >> hs) & 1;
    const std::uint64_t z2 = (z[hw] >> hs) & 1;
    phase += kG[x1 << 3 | z1 << 2 | x2 << 1 | z2];
    x[hw] ^= x1 << hs;
    z[hw] ^= z1 << hs;
  }
  set_r_bit(h, (phase & 3) == 2);
}

void Tableau::rowsum_batch(const std::uint64_t* targets, std::size_t p) {
  // For every target row h (a set bit in `targets`): row h *= row p,
  // with the mod-4 phase of each product tracked in bit-sliced counters
  // (phase_lo_/phase_hi_ hold bit 0 / bit 1 of each row's counter).
  std::fill(phase_lo_.begin(), phase_lo_.end(), 0);
  std::fill(phase_hi_.begin(), phase_hi_.end(), 0);
  const std::size_t pw = p / kWordBits;
  const std::uint64_t pb = std::uint64_t{1} << (p % kWordBits);
  for (std::size_t q = 0; q < n_; ++q) {
    std::uint64_t* x = x_col(q);
    std::uint64_t* z = z_col(q);
    const bool px = (x[pw] & pb) != 0;
    const bool pz = (z[pw] & pb) != 0;
    if (!px && !pz) {
      continue;  // row p acts as identity on q: no flips, no phase
    }
    for (std::size_t w = 0; w < cw_; ++w) {
      const std::uint64_t t = targets[w];
      if (t == 0) {
        continue;
      }
      const std::uint64_t xw = x[w];
      const std::uint64_t zw = z[w];
      // g(px,pz, xw,zw) per target row, as +1 ("plus") / -1 ("minus").
      std::uint64_t plus;
      std::uint64_t minus;
      if (px && !pz) {  // source X
        plus = xw & zw;
        minus = zw & ~xw;
      } else if (px && pz) {  // source Y
        plus = zw & ~xw;
        minus = xw & ~zw;
      } else {  // source Z
        plus = xw & ~zw;
        minus = xw & zw;
      }
      plus &= t;
      minus &= t;
      // counter += 1 on plus rows; counter -= 1 (== += 3 mod 4) on
      // minus rows.
      phase_hi_[w] ^= phase_lo_[w] & plus;
      phase_lo_[w] ^= plus;
      phase_hi_[w] ^= ~phase_lo_[w] & minus;
      phase_lo_[w] ^= minus;
      if (px) {
        x[w] ^= t;
      }
      if (pz) {
        z[w] ^= t;
      }
    }
  }
  // r_h' = r_h ^ r_p ^ (g-sum mod 4 == 2); the g-sum of commuting-
  // product rows is always even, so its residue is the hi counter bit.
  const std::uint64_t rp = (rs_[pw] & pb) != 0 ? ~std::uint64_t{0} : 0;
  for (std::size_t w = 0; w < cw_; ++w) {
    rs_[w] ^= (phase_hi_[w] ^ rp) & targets[w];
  }
}

void Tableau::apply_h(Qubit q) {
  check_qubit(q);
  std::uint64_t* x = x_col(q);
  std::uint64_t* z = z_col(q);
  const bool drop_signs = plant::bug(7);  // mutation hook: lost sign word
  for (std::size_t w = 0; w < cw_; ++w) {
    const std::uint64_t xw = x[w];
    const std::uint64_t zw = z[w];
    if (!drop_signs) {
      rs_[w] ^= xw & zw;
    }
    x[w] = zw;
    z[w] = xw;
  }
  z_hint_[q] = kUnknownZ;  // Z_q -> X_q
}

void Tableau::apply_s(Qubit q) {
  check_qubit(q);
  std::uint64_t* x = x_col(q);
  std::uint64_t* z = z_col(q);
  for (std::size_t w = 0; w < cw_; ++w) {
    const std::uint64_t xw = x[w];
    rs_[w] ^= xw & z[w];
    z[w] ^= xw;
  }
}

void Tableau::apply_sdag(Qubit q) {
  check_qubit(q);
  std::uint64_t* x = x_col(q);
  std::uint64_t* z = z_col(q);
  for (std::size_t w = 0; w < cw_; ++w) {
    const std::uint64_t xw = x[w];
    rs_[w] ^= xw & ~z[w];
    z[w] ^= xw;
  }
}

void Tableau::apply_x(Qubit q) {
  check_qubit(q);
  const std::uint64_t* z = z_col(q);
  for (std::size_t w = 0; w < cw_; ++w) {
    rs_[w] ^= z[w];
  }
  z_hint_[q] ^= 1;  // Z_q -> -Z_q
}

void Tableau::apply_z(Qubit q) {
  check_qubit(q);
  const std::uint64_t* x = x_col(q);
  for (std::size_t w = 0; w < cw_; ++w) {
    rs_[w] ^= x[w];
  }
}

void Tableau::apply_y(Qubit q) {
  check_qubit(q);
  const std::uint64_t* x = x_col(q);
  const std::uint64_t* z = z_col(q);
  for (std::size_t w = 0; w < cw_; ++w) {
    rs_[w] ^= x[w] ^ z[w];
  }
  z_hint_[q] ^= 1;  // Z_q -> -Z_q
}

void Tableau::apply_cnot(Qubit control, Qubit target) {
  check_qubit(control);
  check_qubit(target);
  if (control == target) {
    throw std::invalid_argument("Tableau: CNOT operands must differ");
  }
  std::uint64_t* xc = x_col(control);
  std::uint64_t* zc = z_col(control);
  std::uint64_t* xt = x_col(target);
  std::uint64_t* zt = z_col(target);
  for (std::size_t w = 0; w < cw_; ++w) {
    const std::uint64_t xcw = xc[w];
    const std::uint64_t zcw = zc[w];
    const std::uint64_t xtw = xt[w];
    const std::uint64_t ztw = zt[w];
    rs_[w] ^= xcw & ztw & ~(xtw ^ zcw);
    xt[w] = xtw ^ xcw;
    zc[w] = zcw ^ ztw;
  }
  // Z_c is unchanged and Z_t -> Z_c Z_t, so the target keeps a value
  // only when both factors have one.
  const std::uint8_t c = z_hint_[control];
  const std::uint8_t t = z_hint_[target];
  z_hint_[target] =
      static_cast<std::uint8_t>(((c ^ t) & 1) | ((c | t) & kUnknownZ));
}

void Tableau::apply_cz(Qubit control, Qubit target) {
  check_qubit(control);
  check_qubit(target);
  if (control == target) {
    throw std::invalid_argument("Tableau: CZ operands must differ");
  }
  std::uint64_t* xc = x_col(control);
  std::uint64_t* zc = z_col(control);
  std::uint64_t* xt = x_col(target);
  std::uint64_t* zt = z_col(target);
  for (std::size_t w = 0; w < cw_; ++w) {
    const std::uint64_t xcw = xc[w];
    const std::uint64_t xtw = xt[w];
    rs_[w] ^= xcw & xtw & (zc[w] ^ zt[w]);
    zc[w] ^= xtw;
    zt[w] ^= xcw;
  }
}

void Tableau::apply_swap(Qubit a, Qubit b) {
  check_qubit(a);
  check_qubit(b);
  if (a == b) {
    throw std::invalid_argument("Tableau: SWAP operands must differ");
  }
  std::swap_ranges(x_col(a), x_col(a) + cw_, x_col(b));
  std::swap_ranges(z_col(a), z_col(a) + cw_, z_col(b));
  std::swap(z_hint_[a], z_hint_[b]);
}

void Tableau::apply_unitary(const Operation& op) {
  switch (op.gate()) {
    case GateType::kI:
      return;
    case GateType::kX:
      return apply_x(op.qubit(0));
    case GateType::kY:
      return apply_y(op.qubit(0));
    case GateType::kZ:
      return apply_z(op.qubit(0));
    case GateType::kH:
      return apply_h(op.qubit(0));
    case GateType::kS:
      return apply_s(op.qubit(0));
    case GateType::kSdag:
      return apply_sdag(op.qubit(0));
    case GateType::kCnot:
      return apply_cnot(op.control(), op.target());
    case GateType::kCz:
      return apply_cz(op.control(), op.target());
    case GateType::kSwap:
      return apply_swap(op.control(), op.target());
    default:
      throw std::invalid_argument(
          "Tableau: gate is not stabilizer-simulable: " + op.str());
  }
}

void Tableau::apply_pauli(const PauliString& p) {
  if (p.num_qubits() > n_) {
    throw std::invalid_argument("Tableau: Pauli string too wide");
  }
  for (std::size_t q = 0; q < p.num_qubits(); ++q) {
    switch (p.pauli(q)) {
      case Pauli::kI:
        break;
      case Pauli::kX:
        apply_x(static_cast<Qubit>(q));
        break;
      case Pauli::kY:
        apply_y(static_cast<Qubit>(q));
        break;
      case Pauli::kZ:
        apply_z(static_cast<Qubit>(q));
        break;
    }
  }
}

MeasureResult Tableau::measure(Qubit q) {
  check_qubit(q);
  const std::size_t scratch = 2 * n_;
  if ((z_hint_[q] & kUnknownZ) == 0) {
    // (-1)^v Z_q is in the group: the outcome is v, and the stabilizer
    // product below would leave exactly +/- Z_q in the scratch row.
    const bool value = z_hint_[q] != 0;
    zero_row(scratch);
    set_z_bit(scratch, q, true);
    set_r_bit(scratch, value);
    return {.value = value, .deterministic = true};
  }
  const std::uint64_t* xq = x_col(q);
  const std::size_t p = scan_pivot(q);
  if (p != scratch) {
    // Broadcast rowsum: every other row with an X at q absorbs row p.
    // The target mask is exactly X column q over live rows, minus p.
    for (std::size_t w = 0; w < cw_; ++w) {
      targets_[w] = xq[w] & range_mask(w, 0, 2 * n_);
    }
    targets_[p / kWordBits] &= ~(std::uint64_t{1} << (p % kWordBits));
    rowsum_batch(targets_.data(), p);
    // Destabilizer p-n := old stabilizer p; stabilizer p := +/- Z_q.
    copy_row(p - n_, p);
    zero_row(p);
    set_z_bit(p, q, true);
    const bool outcome = (rng_() & 1) != 0;
    set_r_bit(p, outcome);
    z_hint_[q] = outcome ? 1 : 0;
    return {.value = outcome, .deterministic = false};
  }
  // Deterministic: Z_q is +/- the product of the stabilizers whose
  // destabilizers have an X at q, accumulated in the scratch row.  The
  // first factor is copied: rowsum into a zeroed row would leave the
  // same bits and sign.
  bool empty = true;
  for (std::size_t w = 0; w < cw_; ++w) {
    std::uint64_t hits = xq[w] & range_mask(w, 0, n_);
    while (hits != 0) {
      const std::size_t i =
          w * kWordBits + static_cast<std::size_t>(countr_zero64(hits));
      hits &= hits - 1;
      if (empty) {
        copy_row(scratch, i + n_);
        empty = false;
      } else {
        rowsum(scratch, i + n_);
      }
    }
  }
  if (empty) {
    zero_row(scratch);
  }
  const bool value = r_bit(scratch);
  z_hint_[q] = value ? 1 : 0;
  return {.value = value, .deterministic = true};
}

std::size_t Tableau::scan_pivot(Qubit q) const noexcept {
  // A stabilizer row that anticommutes with Z_q is a set bit in the
  // rows [n, 2n) slice of X column q.
  const std::uint64_t* xq = x_col(q);
  for (std::size_t w = n_ / kWordBits; w < cw_; ++w) {
    const std::uint64_t hits = xq[w] & range_mask(w, n_, 2 * n_);
    if (hits != 0) {
      return w * kWordBits + static_cast<std::size_t>(countr_zero64(hits));
    }
  }
  return 2 * n_;
}

std::optional<std::size_t> Tableau::random_pivot(Qubit q) const {
  check_qubit(q);
  if ((z_hint_[q] & kUnknownZ) == 0) {
    return std::nullopt;
  }
  const std::size_t p = scan_pivot(q);
  return p == 2 * n_ ? std::nullopt : std::optional<std::size_t>(p - n_);
}

void Tableau::copy_image(std::uint64_t* words,
                         std::uint8_t* hints) const noexcept {
  words = std::copy(xs_.begin(), xs_.end(), words);
  words = std::copy(zs_.begin(), zs_.end(), words);
  std::copy(rs_.begin(), rs_.end(), words);
  std::copy(z_hint_.begin(), z_hint_.end(), hints);
}

void Tableau::assign_image(const std::uint64_t* words,
                           const std::uint8_t* hints) noexcept {
  std::copy(words, words + xs_.size(), xs_.begin());
  words += xs_.size();
  std::copy(words, words + zs_.size(), zs_.begin());
  words += zs_.size();
  std::copy(words, words + rs_.size(), rs_.begin());
  std::copy(hints, hints + n_, z_hint_.begin());
}

void Tableau::reset(Qubit q) {
  if (measure(q).value) {
    apply_x(q);
  }
}

void Tableau::execute(const Operation& op) {
  switch (category(op.gate())) {
    case GateCategory::kInitialization:
      return reset(op.qubit(0));
    case GateCategory::kMeasurement:
      measurements_.push_back(measure(op.qubit(0)));
      return;
    default:
      return apply_unitary(op);
  }
}

void Tableau::execute(const Circuit& circuit) {
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      execute(op);
    }
  }
}

std::optional<bool> Tableau::z_hint(Qubit q) const {
  check_qubit(q);
  if ((z_hint_[q] & kUnknownZ) != 0) {
    return std::nullopt;
  }
  return z_hint_[q] != 0;
}

std::vector<MeasureResult> Tableau::take_measurements() {
  std::vector<MeasureResult> out;
  out.swap(measurements_);
  return out;
}

double Tableau::probability_one(Qubit q) const {
  check_qubit(q);
  const SparsePauli z{{PauliTerm{q, Pauli::kZ}}, false};
  int value = 0;
  expectations({&z, 1}, {&value, 1});
  return value == 0 ? 0.5 : (value < 0 ? 1.0 : 0.0);
}

int Tableau::expectation(const PauliString& p) const {
  if (p.num_qubits() > n_) {
    throw std::invalid_argument("Tableau: Pauli string too wide");
  }
  SparsePauli sparse;
  sparse.negative = p.sign() < 0;
  for (std::size_t q = 0; q < p.num_qubits(); ++q) {
    if (p.pauli(q) != Pauli::kI) {
      sparse.terms.push_back({static_cast<Qubit>(q), p.pauli(q)});
    }
  }
  int value = 0;
  expectations({&sparse, 1}, {&value, 1});
  return value;
}

void Tableau::expectations(std::span<const SparsePauli> observables,
                           std::span<int> values) const {
  if (observables.size() != values.size()) {
    throw std::invalid_argument("Tableau: one value per observable");
  }
  // P is fixed exactly when it commutes with every stabilizer row; then
  // P = +/- the product of the stabilizers whose destabilizers
  // anticommute with P (Aaronson-Gottesman), and the product's sign is
  // the value.
  const std::size_t n = n_;
  const std::size_t cw = cw_;
  read_scratch_.assign(3 * cw, 0);
  std::uint64_t* mask = read_scratch_.data();
  // Which bits of each column word are destabilizer / stabilizer rows.
  std::uint64_t* destabilizers = mask + cw;
  std::uint64_t* stabilizers = destabilizers + cw;
  for (std::size_t w = 0; w < cw; ++w) {
    destabilizers[w] = range_mask(w, 0, n);
    stabilizers[w] = range_mask(w, n, 2 * n);
  }
  const auto bit = [](const std::uint64_t* column, std::size_t row) {
    return static_cast<unsigned>(
        (column[row / kWordBits] >> (row % kWordBits)) & 1);
  };
  for (std::size_t k = 0; k < observables.size(); ++k) {
    const std::vector<PauliTerm>& terms = observables[k].terms;
    bool hinted = true;
    for (const PauliTerm& term : terms) {
      if (term.qubit >= n || term.pauli != Pauli::kZ ||
          (z_hint_[term.qubit] & kUnknownZ) != 0) {
        hinted = false;
        break;
      }
    }
    if (hinted) {
      // A product of Z's whose values the hints already know.
      bool negative = observables[k].negative;
      for (const PauliTerm& term : terms) {
        negative ^= (z_hint_[term.qubit] & 1) != 0;
      }
      values[k] = negative ? -1 : +1;
      continue;
    }
    // The rows P anticommutes with: a word-wide XOR of its columns, the
    // Z bits for an X factor and the X bits for a Z factor.
    std::fill(mask, mask + cw, 0);
    for (const PauliTerm& term : terms) {
      check_qubit(term.qubit);
      const auto bits = static_cast<std::uint8_t>(term.pauli);
      const std::uint64_t* x = x_col(term.qubit);
      const std::uint64_t* z = z_col(term.qubit);
      const std::uint64_t take_z = (bits & 1) != 0 ? ~std::uint64_t{0} : 0;
      const std::uint64_t take_x = (bits & 2) != 0 ? ~std::uint64_t{0} : 0;
      for (std::size_t w = 0; w < cw; ++w) {
        mask[w] ^= (z[w] & take_z) ^ (x[w] & take_x);
      }
    }
    std::uint64_t random = 0;
    for (std::size_t w = 0; w < cw; ++w) {
      random |= mask[w] & stabilizers[w];
    }
    if (random != 0) {
      values[k] = 0;
      continue;
    }
    // The factors: stabilizer n + i for each destabilizer i that
    // anticommutes with P.
    read_factors_.clear();
    for (std::size_t w = 0; w * kWordBits < n; ++w) {
      for (std::uint64_t hits = mask[w] & destabilizers[w]; hits != 0;
           hits &= hits - 1) {
        read_factors_.push_back(n + w * kWordBits +
                                static_cast<std::size_t>(countr_zero64(hits)));
      }
    }
    // Each factor's sign adds 2 to the exponent of i; a single factor
    // is +/- P itself.
    unsigned phase = 0;
    for (const std::size_t row : read_factors_) {
      phase += r_bit(row) ? 2 : 0;
    }
    if (read_factors_.size() == 2) {
      // The two factors agree outside P's qubits (their product is P
      // there), and equal Paulis multiply to I with no phase, so the
      // product's phase comes from P's own columns.
      const std::size_t a = read_factors_[0];
      const std::size_t b = read_factors_[1];
      for (const PauliTerm& term : terms) {
        const std::uint64_t* x = x_col(term.qubit);
        const std::uint64_t* z = z_col(term.qubit);
        phase +=
            kG[bit(x, a) << 3 | bit(z, a) << 2 | bit(x, b) << 1 | bit(z, b)];
      }
    } else if (read_factors_.size() > 2) {
      // Longer products (about 4% of the checks at d = 5 and 7, none at
      // d = 3) walk every column, multiplying the factors' Paulis as
      // rowsum does.
      for (std::size_t q = 0; q < n; ++q) {
        const std::uint64_t* x = x_col(q);
        const std::uint64_t* z = z_col(q);
        unsigned acc_x = 0;
        unsigned acc_z = 0;
        for (const std::size_t row : read_factors_) {
          const unsigned fx = bit(x, row);
          const unsigned fz = bit(z, row);
          phase += kG[fx << 3 | fz << 2 | acc_x << 1 | acc_z];
          acc_x ^= fx;
          acc_z ^= fz;
        }
      }
    }
    values[k] = ((phase & 3) == 2) != observables[k].negative ? -1 : +1;
  }
}

PauliString Tableau::row_to_string(std::size_t row) const {
  PauliString out(n_);
  for (std::size_t q = 0; q < n_; ++q) {
    const bool x = x_bit(row, q);
    const bool z = z_bit(row, q);
    out.set_pauli(q, x ? (z ? Pauli::kY : Pauli::kX)
                       : (z ? Pauli::kZ : Pauli::kI));
  }
  out.set_sign(r_bit(row) ? -1 : +1);
  return out;
}

PauliString Tableau::stabilizer(std::size_t i) const {
  if (i >= n_) {
    throw std::out_of_range("Tableau: stabilizer index out of range");
  }
  return row_to_string(n_ + i);
}

PauliString Tableau::destabilizer(std::size_t i) const {
  if (i >= n_) {
    throw std::out_of_range("Tableau: destabilizer index out of range");
  }
  return row_to_string(i);
}

void Tableau::save(journal::SnapshotWriter& out) const {
  out.tag("tableau2");
  out.write_size(n_);
  out.write_bytes(xs_.data(), xs_.size() * sizeof(std::uint64_t));
  out.write_bytes(zs_.data(), zs_.size() * sizeof(std::uint64_t));
  out.write_bytes(rs_.data(), rs_.size() * sizeof(std::uint64_t));
  out.write_rng(rng_);
  out.write_size(measurements_.size());
  for (const MeasureResult& m : measurements_) {
    out.write_bool(m.value);
    out.write_bool(m.deterministic);
  }
}

Tableau Tableau::load(journal::SnapshotReader& in) {
  in.expect_tag("tableau2");
  const std::size_t n = in.read_size();
  // The X, Z and sign columns follow as (2n + 1) * ceil((2n+1)/64)
  // words: a count the rest of the stream cannot hold is rejected
  // before the tableau is allocated.
  const std::size_t words = (2 * n + 1 + kWordBits - 1) / kWordBits;
  if (n == 0 || n > (std::size_t{1} << 24) ||
      (2 * n + 1) * (words * sizeof(std::uint64_t)) > in.remaining()) {
    throw CheckpointError("tableau snapshot: implausible qubit count " +
                          std::to_string(n));
  }
  Tableau t(n);
  in.read_bytes(t.xs_.data(), t.xs_.size() * sizeof(std::uint64_t));
  in.read_bytes(t.zs_.data(), t.zs_.size() * sizeof(std::uint64_t));
  in.read_bytes(t.rs_.data(), t.rs_.size() * sizeof(std::uint64_t));
  t.rng_ = in.read_rng();
  std::fill(t.z_hint_.begin(), t.z_hint_.end(), kUnknownZ);
  const std::size_t pending = in.read_size();
  t.measurements_.clear();
  for (std::size_t i = 0; i < pending; ++i) {
    MeasureResult m;
    m.value = in.read_bool();
    m.deterministic = in.read_bool();
    t.measurements_.push_back(m);
  }
  return t;
}

}  // namespace qpf::stab
