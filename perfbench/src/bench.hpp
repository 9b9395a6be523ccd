// Shared pieces of the perfbench binary: options, the result report, sample
// statistics, the in-memory span recorder of the traced run, and the papd
// process/socket helpers. Everything here is benchmark-side code: it times
// the repository's public entry points from outside and never changes them.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string papd;       ///< absolute path of the papd binary
  std::string root;       ///< absolute path of the repository checkout
  std::string spans_out;  ///< where the traced run writes its spans
};

/// Order statistics over one sample set (nearest-rank, like the repo's
/// LatencyHistogram, but over doubles).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void reserve(std::size_t n) { v_.reserve(n); }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double quantile(double p) const;  ///< p in [0, 1]; 0 when empty
  double median() const { return quantile(0.5); }
  double mean() const;
  double sum() const;
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// Samples bucketed into fixed windows of run time. Statistics are taken
/// per whole window and the median across windows is reported: a host
/// hiccup (a vCPU descheduled for milliseconds) inflates one window's tail
/// but not the median, while a slower program moves every window.
class Windows {
 public:
  explicit Windows(double window_s) : window_s_(window_s) {}
  /// `at_s` is the sample's time since the phase began.
  void add(double at_s, double value);
  void close(double end_s) { end_s_ = end_s; }  ///< phase length
  /// Median over whole windows of each window's quantile `q`.
  double quantile(double q) const;
  /// Median over whole windows of samples per second.
  double rate() const;
  /// For back-to-back samples that are durations in microseconds (a
  /// depth-1 closed loop): median over whole windows of samples per second
  /// of summed duration, each duration capped at its window's quantile
  /// `q`. The cap keeps multi-millisecond host stalls on a few percent of
  /// samples from setting the figure.
  double capped_rate(double q) const;
  std::size_t whole_windows() const;
  std::size_t samples() const;  ///< in whole windows

 private:
  double window_s_;
  double end_s_ = 0.0;
  std::vector<Samples> windows_;
  std::vector<double> first_at_, last_at_;  // per window
};

/// The benchmark's result: named metrics with units, the correctness
/// verdict and the attempted/failed counts. Human-readable lines go to
/// stdout as they are produced; `print_json` writes the final line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A timing metric plus its sample count, printed side by side.
  void timing(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  void note(const std::string& line) const;
  /// A correctness failure: the run is reported as incorrect.
  void wrong(const std::string& why);
  void attempt(long n = 1) { attempted_ += n; }
  void fail(long n = 1) { failed_ += n; }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  void print_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
};

/// In-memory span recorder for the traced run. A span is (name, start,
/// end, parent, request id); parents come from the open-span stack, so
/// spans must be opened and closed on one thread in nesting order. A
/// disabled recorder never reads the clock.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  int intern(const std::string& name);

  class Scope {
   public:
    Scope(Spans* spans, int name, std::int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::int32_t index_ = -1;
  };
  Scope scope(int name, std::int64_t request = -1) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  struct Aggregate {
    std::size_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;  ///< total minus the time covered by children
  };
  /// Per span name.
  std::map<std::string, Aggregate> aggregate() const;
  /// One CSV line per span: id,name,start_ns,end_ns,parent,request.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    std::int32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t request = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

using SpanTable = std::map<std::string, Spans::Aggregate>;
/// Mean duration of the named spans (0 when none were recorded).
double mean_us(const SpanTable& table, const std::string& name);
std::size_t span_count(const SpanTable& table, const std::string& name);
/// Self time summed per layer (the name's first dotted component), ms.
std::map<std::string, double> layer_self_ms(const SpanTable& table);

/// The per-layer metrics every traced run ends with: `<layer>.self_ms`,
/// `trace.overhead_ratio` (traced replay wall / untraced replay wall),
/// `bench.samples` (timed end-to-end samples) and `bench.fail_ratio`.
void report_trace_summary(Report& report, const SpanTable& table,
                          double overhead_ratio, std::size_t samples);

/// papd's `stats` request line.
inline constexpr const char* kStatsRequest =
    "{\"id\":999999999,\"op\":\"stats\"}";

/// One papd process on a Unix socket. The child gets SIGKILL if the
/// benchmark dies, so a crashed run never leaves a daemon behind.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn papd and wait until its socket accepts connections.
  bool start(const std::string& papd, const std::string& socket_path,
             std::string* error);
  /// SIGTERM, wait for the drain; SIGKILL after a deadline. Idempotent.
  bool stop();
  /// VmHWM of the daemon in MB (0 when unreadable).
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
};

/// VmHWM of the calling process, MB.
double self_peak_rss_mb();

/// One SCHED_IDLE busy thread per CPU while alive. On a virtual machine an
/// idle vCPU halts, and waking a thread on it waits for the hypervisor to
/// schedule the vCPU again — tens to hundreds of microseconds that vary
/// with the host's load. Idle-priority spinners keep every vCPU running;
/// any normal thread preempts them at once, so papd's and the client's
/// threads wake at guest speed and get the CPU as if the spinners were
/// absent.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// A newline-framed Unix-socket connection for one thread. Reads poll
/// (non-blocking recv + sched_yield) instead of sleeping in the kernel: on
/// a virtual machine a blocked thread can take tens to hundreds of
/// microseconds to wake, which would be charged to papd's latency.
class LineConn {
 public:
  LineConn() = default;
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool connect(const std::string& path, std::string* error);
  bool send(const std::string& line);  ///< appends the newline
  /// 1 with a line in *out, 0 when none has arrived yet, -1 on EOF/error.
  int try_read_line(std::string* out);
  /// Poll until a whole line arrives; false on EOF/error.
  bool read_line(std::string* out);
  /// send + read_line; only with nothing else in flight.
  bool call(const std::string& line, std::string* reply);
  void close();

 private:
  int fd_ = -1;
  std::string in_;
  std::size_t in_pos_ = 0;
};

/// 64-bit FNV-1a, the digest of transcripts and simulated statistics.
class Digest {
 public:
  void add(const std::string& bytes);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Shortest round-trip decimal rendering of a double (JSON number).
std::string num(double v);

/// The `{"id":N,` prefix every papd reply starts with; -1 when absent.
long reply_id(const std::string& reply);
/// `"name":<number>` lookup in a flat JSON reply (first occurrence).
bool reply_number(const std::string& reply, const std::string& name,
                  double* out);

int run_serve_mix(const Options& opt, Report& report);
int run_admit_churn(const Options& opt, Report& report);
int run_soc_sim(const Options& opt, Report& report);

}  // namespace perfbench
