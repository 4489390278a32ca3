#include "arch/control_stack.h"

#include "circuit/error.h"

namespace qpf::arch {

LerStack::LerStack(const Config& config) : core_(config.seed) {
  if (config.frame_protection != pf::Protection::kNone &&
      !config.with_pauli_frame) {
    throw StackConfigError("LerStack",
                           "frame protection requires a Pauli frame layer");
  }
  counter_bottom_ = std::make_unique<CounterLayer>(&core_);
  error_ = std::make_unique<ErrorLayer>(counter_bottom_.get(),
                                        config.physical_error_rate,
                                        config.seed ^ 0x9e3779b97f4a7c15ULL,
                                        config.bias);
  Core* below_counter = error_.get();
  if (config.classical_faults.any() || config.chaos.any()) {
    faults_ = std::make_unique<ClassicalFaultLayer>(
        error_.get(), config.classical_faults,
        config.seed ^ 0xd1b54a32d192ed03ULL, config.chaos);
    below_counter = faults_.get();
  }
  counter_below_ = std::make_unique<CounterLayer>(below_counter);
  Core* below_frame = counter_below_.get();
  if (config.with_pauli_frame) {
    frame_ =
        std::make_unique<PauliFrameLayer>(below_frame, config.frame_protection);
    below_frame = frame_.get();
  }
  if (config.validate) {
    validator_ = std::make_unique<ValidatingLayer>(below_frame, frame_.get());
    below_frame = validator_.get();
  }
  counter_above_ = std::make_unique<CounterLayer>(below_frame);
  Core* top = counter_above_.get();
  if (config.supervise) {
    SupervisorOptions supervisor_options = config.supervisor;
    if (supervisor_options.seed == 0) {
      supervisor_options.seed = config.seed ^ 0xa24baed4963ee407ULL;
    }
    supervisor_ =
        std::make_unique<SupervisorLayer>(top, supervisor_options);
    supervisor_->set_frame(frame_.get());
    top = supervisor_.get();
  }
  if (config.deadline.any()) {
    timing_ = std::make_unique<TimingLayer>(top);
    timing_->set_deadline(config.deadline);
    timing_->set_stall_source(faults_.get());
    if (supervisor_ != nullptr) {
      supervisor_->set_watchdog(timing_.get());
    }
    top = timing_.get();
  }
  ninja_ = std::make_unique<NinjaStarLayer>(top, config.ninja_options);
  if (timing_ != nullptr) {
    ninja_->set_deadline_watchdog(timing_.get());
  }
  ninja_->create_qubits(1);
}

void LerStack::set_diagnostic_mode(bool on) noexcept {
  counter_bottom_->set_bypass(on);
  error_->set_bypass(on);
  if (faults_ != nullptr) {
    faults_->set_bypass(on);
  }
  counter_below_->set_bypass(on);
  counter_above_->set_bypass(on);
  if (timing_ != nullptr) {
    timing_->set_bypass(on);
  }
  if (supervisor_ != nullptr) {
    supervisor_->set_bypass(on);
    if (!on) {
      // Probe circuits flowed past the supervisor unsupervised; its
      // last good snapshot no longer matches the chain below.
      supervisor_->refresh_good_point();
    }
  }
}

void LerStack::reset_counters() noexcept {
  counter_bottom_->reset_counters();
  counter_below_->reset_counters();
  counter_above_->reset_counters();
}

double LerStack::gates_saved_fraction() const noexcept {
  const auto above = counters_above_frame().operations;
  const auto below = counters_below_frame().operations;
  if (above == 0) {
    return 0.0;
  }
  return (static_cast<double>(above) - static_cast<double>(below)) /
         static_cast<double>(above);
}

void LerStack::save_state(journal::SnapshotWriter& out) const {
  // Stacks without the supervision subsystem keep the legacy section
  // layout so their checkpoints stay bit-identical to previous
  // releases; supervised/deadline stacks use the extended "ler-stack2"
  // section (cf. the tableau/tableau2 precedent).
  if (supervisor_ == nullptr && timing_ == nullptr) {
    out.tag("ler-stack");
    out.write_bool(frame_ != nullptr);
    out.write_bool(faults_ != nullptr);
    out.write_bool(validator_ != nullptr);
  } else {
    out.tag("ler-stack2");
    out.write_bool(frame_ != nullptr);
    out.write_bool(faults_ != nullptr);
    out.write_bool(validator_ != nullptr);
    out.write_bool(supervisor_ != nullptr);
    out.write_bool(timing_ != nullptr);
  }
  ninja_->save_state(out);
}

void LerStack::load_state(journal::SnapshotReader& in) {
  const std::string section = in.read_tag();
  bool with_supervisor = false;
  bool with_timing = false;
  bool with_frame = false;
  bool with_faults = false;
  bool with_validator = false;
  if (section == "ler-stack") {
    with_frame = in.read_bool();
    with_faults = in.read_bool();
    with_validator = in.read_bool();
  } else if (section == "ler-stack2") {
    with_frame = in.read_bool();
    with_faults = in.read_bool();
    with_validator = in.read_bool();
    with_supervisor = in.read_bool();
    with_timing = in.read_bool();
  } else {
    throw CheckpointError("ler stack snapshot: unexpected section tag \"" +
                          section + "\"");
  }
  if (with_frame != (frame_ != nullptr) || with_faults != (faults_ != nullptr) ||
      with_validator != (validator_ != nullptr) ||
      with_supervisor != (supervisor_ != nullptr) ||
      with_timing != (timing_ != nullptr)) {
    throw CheckpointError(
        "ler stack snapshot: layer configuration differs from the "
        "configured stack");
  }
  ninja_->load_state(in);
}

double LerStack::slots_saved_fraction() const noexcept {
  const auto above = counters_above_frame().time_slots;
  const auto below = counters_below_frame().time_slots;
  if (above == 0) {
    return 0.0;
  }
  return (static_cast<double>(above) - static_cast<double>(below)) /
         static_cast<double>(above);
}

}  // namespace qpf::arch
