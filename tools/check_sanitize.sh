#!/usr/bin/env bash
# Build with sanitizers and run the relevant suites under them.  Usage:
#
#   tools/check_sanitize.sh [build-dir]          ASan+UBSan (default:
#                                                build-sanitize)
#   QPF_SANITIZE=thread tools/check_sanitize.sh [build-dir]
#                                                TSan over the parallel
#                                                campaign engine
#                                                (default: build-tsan)
#
# Pass QPF_SANITIZE_FILTER to override the test selection; by default
# only the fault/robustness, fuzz, surface-code (layout, decoders,
# lattice surgery, QCU, the QEC layers), tableau (kernels, hint,
# expectation reads, cross-validation, ChpCore, FrameCore), frame (the
# unit, its records and conjugation tables, its layers), operation,
# observable-read, golden-bytes, parent-journal, biased-noise and
# circuit suites run (ASan) or the threaded-campaign, parent-journal and
# fuzz suites (TSan), which keeps the sanitized run fast while still
# covering every new mutation path.
set -euo pipefail

trap 'exit 130' INT
trap 'exit 143' TERM

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode=${QPF_SANITIZE:-ON}

if [ "$mode" = "thread" ]; then
  build_dir=${1:-"$repo_root/build-tsan"}
  filter=${QPF_SANITIZE_FILTER:-'Executor|ParallelCampaign|LerStack|Resume|Supervisor|Chaos|Fuzz|MutationSmoke|CorpusReplay|Serve|IoFault|FaultNet|ParentJournal'}
else
  build_dir=${1:-"$repo_root/build-sanitize"}
  filter=${QPF_SANITIZE_FILTER:-'Executor|Robustness|ClassicalFault|FrameProtection|ValidatingLayer|LerStack|CliTool|CliCheckpoint|Snapshot|Journal|Resume|CheckpointFile|Supervisor|Chaos|Corruption|TimingLayer|Fuzz|MutationSmoke|CorpusReplay|Serve|IoFault|FaultNet|Sc17|NinjaStar|SurfaceCode|RectangularLayout|MatchingDecoder|LutDecoder|DecoderAgreement|LatticeSurgery|Qcu|Tableau|CrossValidation|TableauStateVectorEquivalence|ChpCore|Circuit|SteaneLayer|PauliFrameLayer|PauliFrame|PauliRecord|Operation|Conjugation|Concatenation|GoldenBytes|RewriteBuffer|ObservableRead|ParentCheckpoint|FrameCore|ParentJournal|BiasedNoise|BiasedErrorLayer|Depolarizing'}
fi

cmake -B "$build_dir" -S "$repo_root" -DQPF_SANITIZE="$mode"
cmake --build "$build_dir" --target qpf_tests -j "$(nproc 2>/dev/null || echo 4)"

if [ "$mode" = "thread" ]; then
  export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
else
  export ASAN_OPTIONS=${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}
  export UBSAN_OPTIONS=${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}
fi

"$build_dir/tests/qpf_tests" --gtest_filter="*$(printf '%s' "$filter" | sed 's/|/*:*/g')*"

# Stress the work-stealing executor's scheduling surface: 20 repeats
# shuffle the thread interleavings under the sanitizer, which is where
# commit-order and RunState-lifetime races would show up.  Death tests
# are excluded — fork-under-sanitizer is slow and they race nothing.
"$build_dir/tests/qpf_tests" --gtest_filter='ExecutorTest.*' \
  --gtest_repeat=20 --gtest_brief=1

echo "sanitized suites passed ($mode)"
