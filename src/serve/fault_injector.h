// Deterministic fault-injection seam for the serving engine.
//
// Production serving behaviour under failure — compile errors, kernel
// exceptions mid-batch, batches stalling between seal and execution — is
// impossible to exercise reliably from the outside: the interesting states
// are reached through timing. The FaultInjector turns them into scripted,
// repeatable events. It is compiled in always (no #ifdef test builds) and
// enabled per Engine via EngineOptions::faultInjector; a null injector costs
// one pointer check on the affected paths and nothing on the request path.
//
// The injector counts three engine-side event streams and fires armed
// faults by 1-based occurrence index:
//   * compiles     — every program compile the engine starts
//                    (fallback compiles are deliberately NOT routed through
//                    the injector: the recovery path must stay recoverable);
//   * runs/launches — every pipeline execution the engine performs, with a
//                    per-run kernel-launch counter (Pipeline launch probe);
//   * batch seals  — every batch the MicroBatcher hands to dispatch.
//
// Determinism contract: compile and seal indices are engine-global and
// deterministic whenever the traffic is (tests submit from one thread and
// bound batches with maxBatch). Kernel-launch faults are addressed as
// (run, launch); run indices are deterministic when pipeline executions do
// not overlap, which the fault tests arrange (one batch in flight,
// pipeline.threads == 1). See tests/serve_faults_test.cpp.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/support/error.h"

namespace tssa::serve {

/// The exception every injected fault throws: a tssa::Error subclass so it
/// travels every path a real failure would, but identifiable in tests.
class InjectedFault : public Error {
 public:
  explicit InjectedFault(const std::string& what)
      : Error("injected fault: " + what, "fault_injector", 0) {}
};

class FaultInjector {
 public:
  // ---- Arming (thread-safe; may be called while the engine runs) ----------

  /// Throw InjectedFault from the nth compile the engine starts (1-based).
  void failNthCompile(std::uint64_t n);
  /// Throw InjectedFault from every compile whose program-key string
  /// contains `substring` (e.g. a workload name) — models a persistently
  /// broken program; the engine's negative cache + fallback must absorb it.
  void failCompilesForKeyContaining(std::string substring);
  /// Throw InjectedFault from the `launch`-th kernel launch (1-based) of the
  /// `run`-th pipeline execution the engine performs (1-based).
  void throwOnKernelLaunch(std::uint64_t run, std::uint64_t launch);
  /// Pretend the nth sealed batch (1-based) spent `virtualUs` extra between
  /// seal and execution: the engine's pre-execution deadline check uses
  /// seal time + this delay as "now". Virtual, not wall-clock — deadline
  /// expiry in the execution queue becomes testable without sleeps.
  void delayNthBatchSeal(std::uint64_t n, std::int64_t virtualUs);

  // ---- Observation (for test assertions) ----------------------------------

  std::uint64_t runsSeen() const;
  std::uint64_t sealsSeen() const;
  std::uint64_t faultsInjected() const;

  // ---- Engine-facing hooks ------------------------------------------------

  /// Called at the start of every engine compile; throws if armed.
  void onCompile(const std::string& keyString);
  /// Called before every pipeline execution; establishes the current run
  /// index for onKernelLaunch and returns it (1-based).
  std::uint64_t beginRun();
  /// Called from the Pipeline launch probe once per modelled kernel launch
  /// of an engine-run pipeline; throws if (currentRun, launchInRun) is
  /// armed.
  void onKernelLaunch();
  /// Called by the MicroBatcher on every seal; returns the armed virtual
  /// delay for this seal (0 normally).
  std::int64_t onBatchSeal();

 private:
  mutable std::mutex mutex_;
  std::uint64_t compiles_ = 0;
  std::uint64_t runs_ = 0;
  std::uint64_t seals_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t launchInRun_ = 0;
  std::set<std::uint64_t> failCompileAt_;
  std::vector<std::string> failCompileKeySubstrings_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> failLaunchAt_;
  std::vector<std::pair<std::uint64_t, std::int64_t>> sealDelays_;
};

}  // namespace tssa::serve
