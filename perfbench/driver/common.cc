#include "common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }

double ThreadCpuSeconds() {
  return static_cast<double>(ClockNs(CLOCK_THREAD_CPUTIME_ID)) / 1e9;
}

double ProcessCpuSeconds() {
  return static_cast<double>(ClockNs(CLOCK_PROCESS_CPUTIME_ID)) / 1e9;
}

void SleepMs(int64_t ms) { SleepUs(ms * 1000); }

void SleepUs(int64_t us) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(us / 1'000'000);
  ts.tv_nsec = static_cast<long>((us % 1'000'000) * 1000);
  nanosleep(&ts, nullptr);
}

std::string HexU64(uint64_t v) {
  char buf[24];
  snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, value, unit});
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, int64_t start_ns,
                       uint64_t request) {
  if (!enabled_) return 0;
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, start_ns, 0, request});
  return id;
}

void Tracer::End(uint64_t id, int64_t end_ns) {
  if (!enabled_ || id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = end_ns;
}

uint64_t Tracer::Record(const char* name, uint64_t parent, int64_t start_ns,
                        int64_t end_ns, uint64_t request) {
  const uint64_t id = Begin(name, parent, start_ns, request);
  End(id, end_ns);
  return id;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "id,parent,name,start_ns,end_ns,request\n");
  for (const Span& s : spans_) {
    fprintf(f, "%llu,%llu,%s,%lld,%lld,%llu\n",
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent), s.name,
            static_cast<long long>(s.start_ns),
            static_cast<long long>(s.end_ns),
            static_cast<unsigned long long>(s.request));
  }
  return fclose(f) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank - 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double BestThirdMean(std::vector<double> values, bool lower_is_better) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (!lower_is_better) std::reverse(values.begin(), values.end());
  const size_t n = std::max<size_t>(1, values.size() / 3);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += values[i];
  return sum / static_cast<double>(n);
}

double QuantileMs(const std::vector<int64_t>& ns, double q) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (const int64_t v : ns) ms.push_back(static_cast<double>(v) / 1e6);
  return Quantile(std::move(ms), q);
}

uint64_t EpochDelta(uint64_t before, uint64_t after) {
  return after >= before ? after - before : after;
}

}  // namespace perfbench
