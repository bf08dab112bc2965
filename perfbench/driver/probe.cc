#include "probe.h"

#include <dirent.h>
#include <sched.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "harness/real_cluster.h"

namespace perfbench {

namespace {

// utime + stime of one /proc/<pid>/task/<tid>/stat line, in seconds.
bool ParseStatCpu(const std::string& line, double* seconds) {
  // The command name may hold spaces; fields resume after its ')'.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  // Fields after the name start at field 3 (state); utime is 14, stime 15.
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15; ++i) {
    if (!(rest >> field)) return false;
    if (i == 14) utime = strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = strtoull(field.c_str(), nullptr, 10);
  }
  static const double kTicks = static_cast<double>(sysconf(_SC_CLK_TCK));
  *seconds = static_cast<double>(utime + stime) / kTicks;
  return true;
}

std::string FsTypeName(const std::string& dir) {
  struct statfs sfs {};
  if (statfs(dir.c_str(), &sfs) != 0) return "unknown";
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x2FC12FC1:
      return "zfs";
    case 0x6969:
      return "nfs";
    case 0x65735546:
      return "fuse";
    default:
      return "0x" + HexU64(static_cast<uint64_t>(sfs.f_type));
  }
}

double MeasureEffectiveParallelism(unsigned threads) {
  auto spin = [] {
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 30'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  const int64_t t0 = NowNs();
  spin();
  const double one = static_cast<double>(NowNs() - t0);
  const int64_t t1 = NowNs();
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  const double all = static_cast<double>(NowNs() - t1);
  return all > 0 ? threads * one / all : 0;
}

}  // namespace

std::vector<ThreadCpu> ReadThreadCpu(pid_t pid) {
  std::vector<ThreadCpu> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream in(dir + "/" + e->d_name + "/stat");
    std::string line;
    double seconds = 0;
    if (std::getline(in, line) && ParseStatCpu(line, &seconds)) {
      out.push_back({static_cast<pid_t>(atoi(e->d_name)), seconds});
    }
  }
  closedir(d);
  return out;
}

double MainThreadCpu(const std::vector<ThreadCpu>& threads, pid_t pid) {
  for (const ThreadCpu& t : threads) {
    if (t.tid == pid) return t.seconds;
  }
  return 0;
}

double OtherThreadsCpu(const std::vector<ThreadCpu>& threads, pid_t pid) {
  double total = 0;
  for (const ThreadCpu& t : threads) {
    if (t.tid != pid) total += t.seconds;
  }
  return total;
}

double VmHwmMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0;
}

bool PinThread(pid_t tid, unsigned first, unsigned last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

uint64_t NodeStats::U64(const std::string& key) const {
  const std::string v = dpaxos::StatsField(raw, key);
  return v.empty() ? 0 : strtoull(v.c_str(), nullptr, 10);
}

std::string NodeStats::Str(const std::string& key) const {
  return dpaxos::StatsField(raw, key);
}

HostShape ProbeHost(const std::string& dir) {
  HostShape host;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  host.nproc = n > 0 ? static_cast<unsigned>(n) : 1;
  host.effective_parallelism = MeasureEffectiveParallelism(host.nproc);
  utsname u{};
  if (uname(&u) == 0) host.kernel = u.release;
  host.fs_type = FsTypeName(dir);
  return host;
}

}  // namespace perfbench
