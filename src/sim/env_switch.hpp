#pragma once

#include <atomic>
#include <cstdlib>

// The run-time on/off switch shared by the instrumentation planes (audit,
// race, obs). Each plane keeps one process-global EnvSwitch, read once from
// its environment variable (PCM_AUDIT, PCM_RACE, PCM_OBS) and flipped by the
// --audit / --race / --metrics flags. The planes are always compiled in; a
// hook costs one relaxed atomic load while its plane is off.

namespace pcm::sim {

/// The environment rule: unset, "" and "0" mean off; anything else means on.
[[nodiscard]] constexpr bool env_switch_on(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

class EnvSwitch {
 public:
  explicit EnvSwitch(const char* env_var)
      : on_(env_switch_on(std::getenv(env_var))) {}

  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

 private:
  std::atomic<bool> on_;
};

}  // namespace pcm::sim
