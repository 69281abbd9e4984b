#include "src/serve/fault_injector.h"

#include <algorithm>

namespace tssa::serve {

void FaultInjector::failNthCompile(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  failCompileAt_.insert(n);
}

void FaultInjector::failCompilesForKeyContaining(std::string substring) {
  std::lock_guard<std::mutex> lock(mutex_);
  failCompileKeySubstrings_.push_back(std::move(substring));
}

void FaultInjector::throwOnKernelLaunch(std::uint64_t run,
                                        std::uint64_t launch) {
  std::lock_guard<std::mutex> lock(mutex_);
  failLaunchAt_.emplace(run, launch);
}

void FaultInjector::delayNthBatchSeal(std::uint64_t n, std::int64_t virtualUs) {
  std::lock_guard<std::mutex> lock(mutex_);
  sealDelays_.emplace_back(n, virtualUs);
}

std::uint64_t FaultInjector::runsSeen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_;
}

std::uint64_t FaultInjector::sealsSeen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seals_;
}

std::uint64_t FaultInjector::faultsInjected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_;
}

void FaultInjector::onCompile(const std::string& keyString) {
  std::uint64_t index;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = ++compiles_;
    fire = failCompileAt_.count(index) > 0;
    if (!fire) {
      fire = std::any_of(failCompileKeySubstrings_.begin(),
                         failCompileKeySubstrings_.end(),
                         [&](const std::string& s) {
                           return keyString.find(s) != std::string::npos;
                         });
    }
    if (fire) ++faults_;
  }
  if (fire)
    throw InjectedFault("compile #" + std::to_string(index) + " of '" +
                        keyString + "'");
}

std::uint64_t FaultInjector::beginRun() {
  std::lock_guard<std::mutex> lock(mutex_);
  launchInRun_ = 0;
  return ++runs_;
}

void FaultInjector::onKernelLaunch() {
  std::uint64_t run, launch;
  bool fire;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    run = runs_;
    launch = ++launchInRun_;
    fire = failLaunchAt_.count({run, launch}) > 0;
    if (fire) ++faults_;
  }
  if (fire)
    throw InjectedFault("kernel launch " + std::to_string(launch) +
                        " of run " + std::to_string(run));
}

std::int64_t FaultInjector::onBatchSeal() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t index = ++seals_;
  std::int64_t delay = 0;
  for (const auto& [n, us] : sealDelays_)
    if (n == index) delay += us;
  if (delay != 0) ++faults_;
  return delay;
}

}  // namespace tssa::serve
