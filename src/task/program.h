// Program models: what a task executes.
//
// A program is a looped sequence of phases. Each phase emits events of the
// six counter classes at a characteristic rate (giving the phase its power),
// lasts for a randomized duration, and may block (sleep) afterwards -
// modelling interactive programs like bash or sshd. Phase changes are what
// make a task's energy profile drift (paper Section 3.1/3.3, Table 1).

#ifndef SRC_TASK_PROGRAM_H_
#define SRC_TASK_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/counters/event_types.h"

namespace eas {

struct Phase {
  EventRates rates{};            // kilo-events per tick at full speed
  Tick mean_duration = 1000;     // CPU ticks spent in this phase
  double duration_jitter = 0.1;  // relative stddev of the duration
  Tick mean_sleep_after = 0;     // blocking sleep after the phase (0 = CPU bound)
  double rate_noise = 0.03;      // per-tick multiplicative noise on the rates
};

// Identifies the on-disk binary a task was started from; the initial
// placement hash table (Section 4.6) is keyed by this ("indexed by the inode
// number of the task's corresponding binary file").
using BinaryId = std::uint64_t;

class Program {
 public:
  Program(std::string name, BinaryId binary_id, std::vector<Phase> phases,
          Tick total_work_ticks);

  const std::string& name() const { return name_; }
  BinaryId binary_id() const { return binary_id_; }
  const std::vector<Phase>& phases() const { return phases_; }
  const Phase& phase(std::size_t i) const { return phases_[i]; }
  std::size_t num_phases() const { return phases_.size(); }

  // CPU ticks of work after which the task completes and is respawned. 0
  // means the task runs forever.
  Tick total_work_ticks() const { return total_work_ticks_; }

 private:
  std::string name_;
  BinaryId binary_id_;
  std::vector<Phase> phases_;
  Tick total_work_ticks_;
};

}  // namespace eas

#endif  // SRC_TASK_PROGRAM_H_
