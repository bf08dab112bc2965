// Shared plumbing of the benchmark driver: clocks, the command line,
// named metrics, in-memory spans and small statistics helpers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds.
int64_t NowNs();
/// CPU time of the calling thread / of the whole process, in seconds.
double ThreadCpuSeconds();
double ProcessCpuSeconds();
void SleepMs(int64_t ms);
void SleepUs(int64_t us);
/// 16 lowercase hex digits.
std::string HexU64(uint64_t v);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< length of the measured phases together
  bool trace = false;
  std::string server;   ///< dpaxos_cli binary
  std::string workdir;  ///< scratch space inside the checkout
};

/// Named metrics in insertion order, each with its unit.
class Metrics {
 public:
  struct Item {
    std::string name;
    double value = 0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  /// Declare that the workload has no such work as `name` measures; the
  /// metric is printed as 0. A declared metric that is neither set nor
  /// declared here fails the run.
  void NotApplicable(const std::string& name) {
    not_applicable_.push_back(name);
  }
  const std::vector<Item>& items() const { return items_; }
  const std::vector<std::string>& not_applicable() const {
    return not_applicable_;
  }

 private:
  std::vector<Item> items_;
  std::vector<std::string> not_applicable_;
};

/// Everything one run reports. A run with any failure publishes nothing.
struct RunResult {
  std::vector<std::string> failures;  ///< failed correctness checks
  std::vector<std::string> notes;     ///< human-readable context lines
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;

  void Fail(const std::string& why) { failures.push_back(why); }
  bool correct() const { return failures.empty(); }
};

/// \brief In-memory span recorder of the traced run.
///
/// Spans (name, start, end, parent, request id) are appended in memory
/// and written out once, when the run ends. Disabled, it records
/// nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Open a span and return its id (0 when disabled), so children can
  /// name it as their parent before it ends.
  uint64_t Begin(const char* name, uint64_t parent, int64_t start_ns,
                 uint64_t request = 0);
  void End(uint64_t id, int64_t end_ns);
  /// Record a finished span; returns its id (0 when disabled).
  uint64_t Record(const char* name, uint64_t parent, int64_t start_ns,
                  int64_t end_ns, uint64_t request = 0);
  size_t size() const { return spans_.size(); }
  /// Write every span as CSV; returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Mean of the best third of `values` (the lowest third when lower is
/// better). Other tenants of a shared host only ever slow a measurement
/// down, for stretches of a second or more: the best third of many short
/// slices is what the code costs, while a change to the code moves every
/// slice.
double BestThirdMean(std::vector<double> values, bool lower_is_better);
/// Quantile of nanosecond samples, in milliseconds.
double QuantileMs(const std::vector<int64_t>& ns, double q);

/// Counter delta across two `stats` reads. A counter that went
/// backwards belongs to a new process epoch (a restarted node starts
/// from zero), so the delta is the new reading, never negative.
uint64_t EpochDelta(uint64_t before, uint64_t after);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
