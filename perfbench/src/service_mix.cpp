// service_mix: one ServiceRuntime (nproc workers, batching off — the
// approxit_serve default) behind an InProcessClient and a NetServer on a
// unix socket in this process. Load is open-loop: seeded Poisson arrivals
// from one generator thread over nproc pipelined connections, each request
// a submit with an attached stream, timed from its due time to its terminal
// event. Specs are drawn from tenants x the six paper datasets x
// {incremental, adaptive, accurate}; half the arrivals repeat an earlier
// (tenant, spec) exactly, the other half are specs not yet sent.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/server.h"
#include "net/socket.h"
#include "svc/client.h"
#include "svc/protocol.h"
#include "svc/runtime.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace svc = approxit::svc;
namespace net = approxit::net;

/// Offered load in jobs per second: under a third of what the mix below
/// sustains on four workers (about 20 jobs/s on a 4-core AVX2 VM), so that
/// a job rarely waits. At half capacity the waits behind the long jobs
/// turned run-to-run changes of host speed into p50 swings of 70%.
constexpr double kRatePerSecond = 6.0;

/// Arrivals still in flight this long after the window are counted failed.
constexpr double kDrainTimeoutMs = 60000.0;

struct Combo {
  std::string app;
  std::string dataset;
  std::string strategy;
  std::size_t copies = 1;  ///< Cards per arrival deck.
};

/// The 18 specs and their share of the traffic: one deck is 120 cards, the
/// arrivals of one 20 s run at 6 jobs/s. A job's run time is set mostly by
/// its spec (about 40-60 ms for the small 3cluster and 3d3cluster specs,
/// 100 hangseng, 200 4cluster, 650 nasdaq, 1400 sp500 on a 4-core AVX2 VM),
/// so latencies form clusters, and a percentile that sits where two clusters
/// meet jumps between them from run to run. One hot spec (3cluster,
/// accurate) holds 90 cards, so p50 (rank 60) is its 61st-67th percentile
/// whichever small specs run faster; nasdaq's 12 cards hold p90 (rank 108
/// falls within ranks 102-113).
std::vector<Combo> combos() {
  return {
      {"gmm", "3cluster", "accurate", 90},
      {"gmm", "3cluster", "incremental", 1},
      {"gmm", "3cluster", "adaptive", 1},
      {"gmm", "3d3cluster", "accurate", 1},
      {"gmm", "3d3cluster", "incremental", 1},
      {"gmm", "3d3cluster", "adaptive", 1},
      {"ar", "hangseng", "accurate", 1},
      {"ar", "hangseng", "incremental", 1},
      {"ar", "hangseng", "adaptive", 1},
      {"gmm", "4cluster", "accurate", 1},
      {"gmm", "4cluster", "incremental", 1},
      {"gmm", "4cluster", "adaptive", 1},
      {"ar", "nasdaq", "accurate", 4},
      {"ar", "nasdaq", "incremental", 4},
      {"ar", "nasdaq", "adaptive", 4},
      {"ar", "sp500", "accurate", 3},
      {"ar", "sp500", "incremental", 2},
      {"ar", "sp500", "adaptive", 2},
  };
}

svc::JobSpec spec_of(const Combo& combo, const std::string& tenant,
                     const std::string& strategy) {
  svc::JobSpec spec;
  spec.tenant = tenant;
  spec.app = combo.app;
  spec.dataset = combo.dataset;
  spec.strategy = strategy;
  return spec;
}

/// The serving stack of one set-up, torn down in reverse order.
class Stack {
 public:
  Stack(std::size_t workers, const std::string& address) {
    svc::ServiceConfig config;
    config.threads = workers;
    client_ = std::make_unique<svc::InProcessClient>(config);
    net::NetServerConfig net_config;
    net_config.address = address;
    server_ = std::make_unique<net::NetServer>(*client_, net_config);
    std::string error;
    if (!server_->start(&error)) {
      throw std::runtime_error("NetServer start failed: " + error);
    }
    loop_ = std::thread([this] { server_->run(); });
  }
  ~Stack() {
    server_->stop();
    loop_.join();
    const std::string address = server_->listen_address();
    server_.reset();
    client_.reset();
    if (address.rfind("unix:", 0) == 0) ::unlink(address.c_str() + 5);
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const std::string& address() const { return server_->listen_address(); }

  /// Runs `specs` in process and returns their terminal snapshots.
  std::vector<svc::JobSnapshot> run_all(
      const std::vector<svc::JobSpec>& specs) {
    std::vector<std::uint64_t> ids;
    for (const svc::JobSpec& spec : specs) {
      std::string error;
      const std::optional<std::uint64_t> id = client_->submit(spec, &error);
      if (!id) throw std::runtime_error("in-process submit refused: " + error);
      ids.push_back(*id);
    }
    std::vector<svc::JobSnapshot> out;
    for (std::uint64_t id : ids) out.push_back(*client_->runtime().result(id));
    return out;
  }

 private:
  std::unique_ptr<svc::InProcessClient> client_;
  std::unique_ptr<net::NetServer> server_;
  std::thread loop_;
};

/// Client-side record of one arrival.
struct Job {
  double due_ms = 0.0;     ///< Absolute due time.
  double sent_ms = 0.0;
  double acked_ms = 0.0;
  double done_ms = 0.0;    ///< Terminal event received.
  std::uint64_t id = 0;
  bool refused = false;
  std::string error;
  std::optional<svc::JobStatus> status;
};

/// One pipelined socket: the generator writes submit lines, a reader
/// thread matches acks to submits in order and terminal events to ids.
class Connection {
 public:
  Connection(const std::string& address, std::vector<Job>& jobs,
             std::atomic<std::size_t>& finished)
      : jobs_(jobs), finished_(finished) {
    std::string error;
    const std::optional<net::Address> parsed =
        net::parse_address(address, &error);
    if (parsed) fd_ = net::connect_socket(*parsed, &error);
    if (fd_ < 0) throw std::runtime_error("connect failed: " + error);
    reader_ = std::thread([this] { read_loop(); });
  }
  ~Connection() {
    ::shutdown(fd_, SHUT_RDWR);
    reader_.join();
    ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends job `index`'s submit line; false on a write error.
  bool send(std::size_t index, const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_acks_.push_back(index);
    }
    std::string out = line + "\n";
    std::size_t written = 0;
    while (written < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + written, out.size() - written,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      written += static_cast<std::size_t>(n);
    }
    bytes_.fetch_add(out.size());
    return true;
  }

  std::size_t bytes() const { return bytes_.load(); }

 private:
  void read_loop() {
    std::string buffer;
    char chunk[65536];
    while (true) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return;
      const double now = now_ms();
      bytes_.fetch_add(static_cast<std::size_t>(n));
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        handle_line(std::string_view(buffer).substr(start, nl - start), now);
      }
      buffer.erase(0, start);
    }
  }

  void handle_line(std::string_view line, double now) {
    const std::optional<svc::WireObject> object =
        svc::parse_wire_object(line, nullptr, /*allow_raw_nested=*/true);
    if (!object) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!svc::is_event_line(*object)) {
      if (pending_acks_.empty()) return;
      Job& job = jobs_[pending_acks_.front()];
      pending_acks_.erase(pending_acks_.begin());
      job.acked_ms = now;
      if (object->get_bool("ok", false)) {
        job.id = static_cast<std::uint64_t>(object->get_int("id", 0));
        by_id_[job.id] = &job;
      } else {
        job.refused = true;
        job.error = object->get_string("error");
        job.done_ms = now;
        finished_.fetch_add(1);
      }
      return;
    }
    const std::optional<svc::StreamEvent> event =
        svc::stream_event_from_wire(*object);
    if (!event || !event->terminal()) return;
    const auto it = by_id_.find(event->id);
    if (it == by_id_.end()) return;
    it->second->done_ms = now;
    it->second->status = event->status;
    finished_.fetch_add(1);
  }

  std::vector<Job>& jobs_;  ///< Written under mutex_ by the reader.
  std::atomic<std::size_t>& finished_;  ///< Jobs with a final outcome.
  int fd_ = -1;
  std::mutex mutex_;
  std::vector<std::size_t> pending_acks_;
  std::map<std::uint64_t, Job*> by_id_;
  std::atomic<std::size_t> bytes_{0};
  std::thread reader_;  ///< Declared last: joined before the rest dies.
};

std::string submit_line(const svc::JobSpec& spec) {
  svc::WireWriter request;
  request.field("op", "submit")
      .field("proto", static_cast<std::int64_t>(svc::kProtoVersion))
      .field("stream", true);
  svc::job_spec_to_wire(spec, request);
  return request.str();
}

double state_distance(const std::vector<double>& a,
                      const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    sum += (a[i] - b[i]) * (a[i] - b[i]);
  }
  return std::sqrt(sum);
}

/// Reference outcome of one combo, from an in-process run.
struct Reference {
  std::string report_json;
  double energy_ratio = 1.0;  ///< Energy over the dataset's Truth energy.
  double quality_loss = 0.0;  ///< State error vs Truth over level1's.
};

}  // namespace

Result run_service_mix(const Options& options) {
  Result result;
  const std::vector<Combo> mix = combos();
  const std::string address =
      "unix:" + options.run_dir + "/svc-" + std::to_string(::getpid()) +
      ".sock";

  // The six datasets, in order of first appearance in the mix, and the
  // dataset of every combo.
  std::vector<const Combo*> datasets;
  std::vector<std::size_t> dataset_of(mix.size());
  for (std::size_t c = 0; c < mix.size(); ++c) {
    std::size_t d = 0;
    while (d < datasets.size() && datasets[d]->dataset != mix[c].dataset) ++d;
    if (d == datasets.size()) datasets.push_back(&mix[c]);
    dataset_of[c] = d;
  }

  // Set-up: start the stack and warm the profile cache with one job per
  // dataset. Each repetition starts from a fresh runtime (cold cache).
  std::unique_ptr<Stack> stack;
  const double setup_s = timed_setup_s([&] {
    stack.reset();
    stack = std::make_unique<Stack>(options.threads, address);
    std::vector<svc::JobSpec> warm;
    for (const Combo* dataset : datasets) {
      warm.push_back(spec_of(*dataset, "warmup", "incremental"));
    }
    stack->run_all(warm);
  });

  // References: every combo in process, plus Truth and level1 per dataset,
  // submitted together and collected in order.
  std::vector<Reference> reference(mix.size());
  {
    std::vector<svc::JobSpec> specs;
    for (const Combo* dataset : datasets) {
      specs.push_back(spec_of(*dataset, "reference", "accurate"));
      specs.push_back(spec_of(*dataset, "reference", "level1"));
    }
    for (const Combo& combo : mix) {
      specs.push_back(spec_of(combo, "reference", combo.strategy));
    }
    const std::vector<svc::JobSnapshot> snaps = stack->run_all(specs);
    std::string runs = "service_mix: in-process run_ms per spec:";
    for (std::size_t c = 0; c < mix.size(); ++c) {
      const svc::JobSnapshot& snap = snaps[2 * datasets.size() + c];
      const svc::JobSnapshot& truth = snaps[2 * dataset_of[c]];
      const svc::JobSnapshot& level1 = snaps[2 * dataset_of[c] + 1];
      runs += " " + mix[c].dataset + "/" + mix[c].strategy + "=" +
              std::to_string(static_cast<int>(snap.run_ms));
      reference[c].report_json = snap.report_json;
      reference[c].energy_ratio =
          snap.report.total_energy / truth.report.total_energy;
      const double yardstick =
          state_distance(level1.report.final_state, truth.report.final_state);
      reference[c].quality_loss =
          yardstick > 0.0 ? state_distance(snap.report.final_state,
                                           truth.report.final_state) /
                                yardstick
                          : 0.0;
    }
    result.notes.push_back(runs);
  }

  // The open loop.
  std::vector<std::size_t> deck;
  for (const Combo& combo : mix) deck.push_back(combo.copies);
  const std::vector<Arrival> schedule =
      make_schedule(options.seed, kRatePerSecond, options.seconds, deck);
  std::vector<Job> jobs(schedule.size());
  std::size_t net_bytes = 0;
  std::atomic<std::size_t> finished{0};
  const double window_start = now_ms() + 50.0;
  {
    std::vector<std::unique_ptr<Connection>> connections;
    for (std::size_t c = 0; c < options.threads; ++c) {
      connections.push_back(
          std::make_unique<Connection>(stack->address(), jobs, finished));
    }
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& arrival = schedule[i];
      jobs[i].due_ms = window_start + arrival.due_ms;
      const Combo& combo = mix[arrival.combo];
      const std::string line = submit_line(spec_of(
          combo, "tenant-" + std::to_string(arrival.tenant), combo.strategy));
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(jobs[i].due_ms))));
      jobs[i].sent_ms = now_ms();
      if (!connections[i % connections.size()]->send(i, line)) {
        jobs[i].refused = true;
        jobs[i].error = "write failed";
        finished.fetch_add(1);
      }
    }
    // Drain: wait until every job has its terminal event (or times out).
    const double drain_start = now_ms();
    while (finished.load() < jobs.size() &&
           now_ms() - drain_start < kDrainTimeoutMs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (const auto& connection : connections) net_bytes += connection->bytes();
  }  // Connections joined: job records are final.

  std::vector<double> latency;
  std::vector<double> late;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> submit_us;
  std::vector<double> net_overhead;
  std::map<std::string, std::size_t> refused;
  double energy_sum = 0.0;
  double quality_loss = 0.0;
  std::size_t completed = 0;
  std::size_t slo_misses = 0;
  std::size_t cache_hits = 0;
  double last_done = window_start;
  Tracer tracer(options.trace);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const std::size_t combo = schedule[i].combo;
    ++result.attempted;
    late.push_back(job.sent_ms - job.due_ms);
    bool ok = !job.refused && job.status.has_value() &&
              job.status->state == svc::JobState::kDone;
    if (job.refused) {
      const std::string reason = job.error.substr(0, job.error.find(':'));
      ++refused[reason.empty() ? "other" : reason];
    }
    if (ok && job.status->report_json != reference[combo].report_json) {
      ok = false;
      result.notes.push_back("service_mix: report of job " +
                             std::to_string(job.id) +
                             " differs from the in-process run");
    }
    if (!ok) {
      ++result.failed;
      ++slo_misses;
      continue;
    }
    const double ms = job.done_ms - job.due_ms;
    latency.push_back(ms);
    if (ms > options.slo_ms) ++slo_misses;
    last_done = std::max(last_done, job.done_ms);
    ++completed;
    energy_sum += reference[combo].energy_ratio;
    quality_loss = std::max(quality_loss, reference[combo].quality_loss);
    queue_ms.push_back(job.status->queue_ms);
    run_ms.push_back(job.status->run_ms);
    submit_us.push_back((job.acked_ms - job.sent_ms) * 1000.0);
    net_overhead.push_back(job.done_ms - job.sent_ms - job.status->queue_ms -
                           job.status->run_ms);
    if (job.status->cache_hit) ++cache_hits;
    if (tracer.enabled()) {
      const std::uint64_t request = i + 1;
      const std::uint64_t root = tracer.record("svc.job", job.due_ms,
                                               job.done_ms, 0, request);
      tracer.record("gen.late", job.due_ms, job.sent_ms, root, request);
      const double queued_until = job.sent_ms + job.status->queue_ms;
      tracer.record("svc.queue", job.sent_ms, queued_until, root, request);
      tracer.record("svc.run", queued_until,
                    queued_until + job.status->run_ms, root, request);
    }
  }

  const double window_s = (last_done - window_start) / 1000.0;
  const double n_done = std::max<double>(1.0, static_cast<double>(completed));
  Metrics& e2e = result.end_to_end;
  e2e["solves_per_s"] = {static_cast<double>(completed) / window_s, "1/s"};
  e2e["latency_ms_p50"] = {percentile(latency, 50.0), "ms"};
  e2e["latency_ms_p90"] = {percentile(latency, 90.0), "ms"};
  e2e["energy_ratio"] = {energy_sum / n_done, "ratio"};
  e2e["quality_loss"] = {quality_loss, "ratio"};
  e2e["setup_s"] = {setup_s, "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  const double slo_miss_share =
      static_cast<double>(slo_misses) /
      std::max<double>(1.0, static_cast<double>(result.attempted));
  const double late_p99 = percentile(late, 99.0);
  result.notes.push_back(
      "service_mix: " + std::to_string(latency.size()) +
      " latency samples at " + json_number(kRatePerSecond) +
      " jobs/s; highest percentile with ten samples beyond: p" +
      json_number(highest_supported_percentile(latency.size())));
  result.notes.push_back("service_mix: slo_miss_share " +
                         json_number(slo_miss_share) + " at a " +
                         json_number(options.slo_ms) + " ms limit");
  result.notes.push_back("service_mix: generator p99 lateness " +
                         json_number(late_p99) + " ms");
  if (late_p99 > options.max_late_ms) {
    result.rejected = "open-loop generator ran " + json_number(late_p99) +
                      " ms late at p99 (bound " +
                      json_number(options.max_late_ms) + " ms)";
  }

  if (!options.trace) return result;

  // Idle round trips on a fresh connection.
  std::vector<double> rtt_us;
  {
    std::string error;
    const std::unique_ptr<svc::LineClient> client =
        net::connect_client(stack->address(), &error);
    if (!client) throw std::runtime_error("connect failed: " + error);
    for (int i = 0; i < 50; ++i) {
      const double start = now_ms();
      client->status(jobs.front().id);
      rtt_us.push_back((now_ms() - start) * 1000.0);
    }
  }

  // Trace overhead: a small in-process job (3cluster, accurate) back to
  // back with and without its spans, the order flipping each pair (ABBA).
  std::vector<OverheadPair> overhead(12);
  const svc::JobSpec probe = spec_of(mix[0], "probe", mix[0].strategy);
  for (std::size_t k = 0; k < overhead.size(); ++k) {
    for (std::size_t pass = 0; pass < 2; ++pass) {
      const bool traced = k % 2 == pass;
      Tracer probe_tracer(traced);
      const double start = now_ms();
      {
        Scope job_span(probe_tracer, "svc.job", 0, 1);
        Scope submit_span(probe_tracer, "svc.submit", job_span.id(), 1);
        stack->run_all({probe});
      }
      (traced ? overhead[k].traced_ms : overhead[k].untraced_ms) =
          now_ms() - start;
    }
  }

  const std::vector<Span> spans = tracer.take();
  const Reconciliation rec = reconcile(spans);
  double busy_ms = 0.0;
  for (double ms : run_ms) busy_ms += ms;
  Metrics& layers = result.layers;
  layers["core.session_ms"] = {mean_of(run_ms), "ms"};
  layers["svc.submit_us"] = {median(submit_us), "us"};
  layers["svc.queue_ms_p50"] = {percentile(queue_ms, 50.0), "ms"};
  layers["svc.queue_ms_p90"] = {percentile(queue_ms, 90.0), "ms"};
  layers["svc.run_ms_p50"] = {percentile(run_ms, 50.0), "ms"};
  layers["svc.run_ms_p90"] = {percentile(run_ms, 90.0), "ms"};
  layers["svc.busy_share"] = {
      busy_ms / (static_cast<double>(options.threads) * window_s * 1000.0),
      "ratio"};
  layers["svc.cache_hit_share"] = {static_cast<double>(cache_hits) / n_done,
                                   "ratio"};
  for (const char* reason :
       {"queue_full", "tenant_cap", "rate_limited", "shed_overload"}) {
    const auto it = refused.find(reason);
    layers[std::string("svc.rejected.") + reason] = {
        it == refused.end() ? 0.0 : static_cast<double>(it->second), "count"};
  }
  std::size_t other_refusals = 0;
  for (const auto& [reason, count] : refused) {
    if (reason != "queue_full" && reason != "tenant_cap" &&
        reason != "rate_limited" && reason != "shed_overload") {
      other_refusals += count;
    }
  }
  layers["svc.rejected.other"] = {static_cast<double>(other_refusals),
                                  "count"};
  layers["svc.repeat_share"] = {measured_repeat_share(schedule), "ratio"};
  layers["svc.slo_miss_share"] = {slo_miss_share, "ratio"};
  layers["net.overhead_ms_p50"] = {percentile(net_overhead, 50.0), "ms"};
  layers["net.overhead_ms_p90"] = {percentile(net_overhead, 90.0), "ms"};
  layers["net.rtt_us"] = {median(rtt_us), "us"};
  layers["net.bytes_per_job"] = {
      static_cast<double>(net_bytes) /
          std::max<double>(1.0, static_cast<double>(jobs.size())),
      "B"};
  layers["gen.late_ms_p99"] = {late_p99, "ms"};
  check_trace(result, "service_mix", trace_overhead(overhead), rec);
  return result;
}

}  // namespace perfbench
