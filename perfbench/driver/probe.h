// Outside views of the system under test: per-thread CPU and peak RSS
// from /proc, the `stats` op read through StatsField, and the host's
// shape (cores, measured parallelism, kernel, filesystem).
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct ThreadCpu {
  pid_t tid = 0;
  double seconds = 0;  ///< utime + stime
};

/// CPU time of every thread of `pid`, from /proc/<pid>/task/*/stat.
std::vector<ThreadCpu> ReadThreadCpu(pid_t pid);
/// The thread whose id is the pid (the process's main thread).
double MainThreadCpu(const std::vector<ThreadCpu>& threads, pid_t pid);
/// Every other thread together.
double OtherThreadsCpu(const std::vector<ThreadCpu>& threads, pid_t pid);
/// VmHWM of `pid` in MiB (0 if unreadable).
double VmHwmMb(pid_t pid);
/// Pin thread `tid` (0 = the calling thread) to CPUs [first, last].
bool PinThread(pid_t tid, unsigned first, unsigned last);

/// One node's `stats` reply.
struct NodeStats {
  bool ok = false;
  std::string raw;
  uint64_t U64(const std::string& key) const;
  std::string Str(const std::string& key) const;
};

struct HostShape {
  unsigned nproc = 1;
  /// nproc busy threads against one: how many cores' worth of
  /// CPU-bound work the host actually delivers in parallel.
  double effective_parallelism = 1;
  std::string kernel;
  std::string fs_type;  ///< filesystem holding the working directory
};

/// `dir` is the directory whose filesystem is recorded.
HostShape ProbeHost(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
