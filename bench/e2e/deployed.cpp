// The deployed workloads: fleet_1k, tier_1k and lossy_udp.
//
// The real ServerSession (and, for tier_1k, two real RelaySessions) serve a
// fleet of replay clients. Each replay client answers MODEL(r) with its
// recorded SCORE and SELECT(r) with its recorded UPDATE bytes, so the
// clients cost almost nothing and the round time is the server's. Traffic
// runs over in-process channels only: make_loopback_pair streams, or FEC
// datagrams over make_datagram_loopback_pair with seeded loss.
#include <pthread.h>

#include <algorithm>
#include <bit>
#include <iostream>
#include <mutex>
#include <numeric>
#include <thread>

#include "core/parallel.h"
#include "net/relay/relay.h"
#include "net/transport/faulty.h"
#include "net/transport/loopback.h"
#include "net/transport/session.h"
#include "net/transport/udp.h"
#include "script.h"
#include "tensor/tensor.h"
#include "workloads.h"

namespace adafl::bench {

namespace nt = net::transport;

namespace {

enum class Kind { kFleet, kTier, kLossyUdp };

/// Setups per run: each is torn down once the fleet holds MODEL(1), except
/// the middle one, which goes on to the measured rounds. Setups on both
/// sides of the measured rounds keep a slow spell of the host from moving
/// the median.
constexpr int kSetupReps = 5;
/// A run that has not finished by then is stopped and reported failed.
constexpr double kDeadlineS = 150.0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One replayed client; owned by exactly one driver thread.
struct ReplayClient {
  int id = 0;
  std::unique_ptr<nt::Transport> conn;
  int model_round = 0;   ///< newest MODEL round answered
  int select_round = 0;  ///< newest SELECT round answered
  bool pending_score = false;  ///< holds MODEL(1)'s SCORE until setup ends
  bool heard = false;          ///< any frame arrived (HELLO got through)
  Clock::time_point hello_at{};
  bool done = false;
};

/// One setup of the system under test plus its replay fleet.
class Deployment {
 public:
  Deployment(Kind kind, const Shape& shape, const Script& script,
             const cli::TaskBundle& task, int drivers, bool measured,
             SpanLog* spans, Clock::time_point deadline)
      : kind_(kind),
        shape_(shape),
        script_(script),
        task_(task),
        measured_(measured),
        spans_(spans),
        deadline_(deadline),
        n_(shape.spec.clients),
        first_arrival_(static_cast<std::size_t>(shape.rounds) + 2),
        driver_clock_(static_cast<std::size_t>(drivers)),
        driver_cpu_a_(static_cast<std::size_t>(drivers), 0.0),
        driver_cpu_b_(static_cast<std::size_t>(drivers), 0.0),
        drivers_(drivers) {
    for (auto& a : first_arrival_) a.store(0);
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  ~Deployment() {
    finish_.store(true);
    for (auto& relay : relays_) relay->request_stop();
    for (auto& t : driver_threads_)
      if (t.joinable()) t.join();
    for (auto& rt : relay_threads_)
      if (rt.joinable()) rt.join();
  }

  /// Builds and runs everything; returns when the session and the fleet
  /// are done (after the setup barrier only, unless `measured`).
  void run() {
    t_start_ns_ = now_ns();
    build();
    for (int d = 0; d < drivers_; ++d)
      driver_threads_.emplace_back([this, d] { drive(d); });
    log_ = server_->run();
    // A completed root sends SHUTDOWN, which each relay forwards to its
    // leaves before it exits; a stopped root sends none.
    const bool stopped = !measured_ || stopping_.load();
    while (!stopped && relays_running_.load() > 0 && Clock::now() < deadline_)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (auto& relay : relays_) relay->request_stop();
    for (auto& rt : relay_threads_) rt.join();
    if (stopped || relays_running_.load() > 0) finish_.store(true);
    for (auto& t : driver_threads_) t.join();
  }

  double setup_s() const {
    return 1e-9 * static_cast<double>(ready_ns_.load() - t_start_ns_);
  }

  // --- Read after run(). ----------------------------------------------------
  Kind kind_;
  const Shape& shape_;
  const Script& script_;
  const cli::TaskBundle& task_;
  bool measured_;
  SpanLog* spans_;
  Clock::time_point deadline_;
  int n_;

  // Counters outlive the sessions whose decorators point at them.
  TransportCounters root_counters_;
  TransportCounters child_counters_;   ///< relay <- leaf connections
  TransportCounters parent_counters_;  ///< relay -> root connections
  nt::FecStats fec_stats_;
  std::atomic<std::int64_t> server_dgram_sent_{0};
  std::atomic<std::int64_t> server_dgram_recv_{0};

  std::unique_ptr<nt::ServerSession> server_;
  fl::TrainLog log_;
  std::vector<std::unique_ptr<net::relay::RelaySession>> relays_;
  std::vector<net::relay::RelayRunStats> relay_stats_;

  std::atomic<std::int64_t> up_bytes_{0};
  std::atomic<std::int64_t> down_bytes_{0};
  std::atomic<std::int64_t> resends_{0};
  std::atomic<std::int64_t> unexpected_closes_{0};

  /// first_arrival_[r]: steady-clock ns of the first MODEL(r) at any
  /// driver; index rounds + 1 holds the first SHUTDOWN.
  std::vector<std::atomic<std::int64_t>> first_arrival_;
  std::atomic<std::int64_t> ready_ns_{0};
  /// Timed window [first MODEL(warm + 1), first SHUTDOWN] snapshots.
  double proc_cpu_a_ = 0, proc_cpu_b_ = 0;
  std::uint64_t allocs_a_ = 0, allocs_b_ = 0;
  std::vector<std::atomic<long>> driver_clock_;
  std::vector<double> driver_cpu_a_, driver_cpu_b_;

  std::mutex error_mu_;
  std::string error_;

 private:
  std::unique_ptr<nt::Transport> wrap(std::unique_ptr<nt::Transport> t,
                                      TransportCounters& c) {
    if (spans_ == nullptr) return t;
    return std::make_unique<TimedTransport>(std::move(t), &c, spans_);
  }

  /// Server side and client side of one lossy FEC datagram connection.
  /// Only client->server datagrams are lost, and the server repairs them.
  /// Server->client datagrams arrive whole: their repair would run on the
  /// replay drivers, and at ~5x the server's per-client FEC encode cost it
  /// would make the load generator, not the server, set the pace. The
  /// repair kernel's speed on lost MODEL datagrams is still measured, by
  /// the traced run's fec.reassemble_mb_per_s replay.
  std::pair<std::unique_ptr<nt::Transport>, std::unique_ptr<nt::Transport>>
  udp_pair(int id) {
    nt::UdpFecConfig fec = lossy_fec();
    fec.stats = &fec_stats_;
    auto [a, b] = nt::make_datagram_loopback_pair();
    std::unique_ptr<nt::DatagramLink> server_link = std::move(a);
    if (spans_ != nullptr)
      server_link = std::make_unique<CountingDatagramLink>(
          std::move(server_link), &server_dgram_sent_, &server_dgram_recv_);
    std::unique_ptr<nt::DatagramLink> client_link =
        std::make_unique<CountingDatagramLink>(
            std::make_unique<nt::FaultyDatagramLink>(
                std::move(b), nt::DatagramFaultPlan::iid(
                                  kDatagramLoss,
                                  mix_seed(shape_.spec.seed,
                                           static_cast<std::uint64_t>(id)))),
            &up_bytes_, &down_bytes_);
    return {std::make_unique<nt::UdpTransport>(std::move(server_link), fec),
            std::make_unique<nt::UdpTransport>(std::move(client_link), fec)};
  }

  void build() {
    nt::ServerSessionConfig cfg;
    cfg.params = shape_.params;
    cfg.rounds = shape_.rounds;
    cfg.eval_every = 1;
    cfg.expected_clients = n_;
    cfg.client_config = cli::task_to_kv(shape_.spec, shape_.client);
    server_ = std::make_unique<nt::ServerSession>(cfg, task_.factory,
                                                  &task_.test);
    clients_.resize(static_cast<std::size_t>(n_));
    for (int id = 0; id < n_; ++id) clients_[static_cast<std::size_t>(id)].id = id;

    if (kind_ == Kind::kTier) {
      const int span = n_ / 2;
      for (int r = 0; r < 2; ++r) {
        net::relay::RelayConfig rc;
        rc.base = r * span;
        rc.count = span;
        relays_.push_back(std::make_unique<net::relay::RelaySession>(
            rc,
            [this](std::size_t) -> std::unique_ptr<nt::Transport> {
              if (stopping_.load()) return nullptr;
              auto [s, c] = nt::make_loopback_pair();
              server_->add_transport(wrap(std::move(s), root_counters_));
              return wrap(std::move(c), parent_counters_);
            },
            1));
      }
      for (int id = 0; id < n_; ++id) {
        auto [s, c] = nt::make_loopback_pair();
        relays_[static_cast<std::size_t>(id / span)]->add_child_transport(
            wrap(std::move(s), child_counters_));
        clients_[static_cast<std::size_t>(id)].conn = std::move(c);
      }
      relay_stats_.resize(relays_.size());
      relays_running_.store(static_cast<int>(relays_.size()));
      for (std::size_t r = 0; r < relays_.size(); ++r)
        relay_threads_.emplace_back([this, r] {
          relay_stats_[r] = relays_[r]->run();
          relays_running_.fetch_sub(1);
        });
      return;
    }
    for (int id = 0; id < n_; ++id) {
      std::unique_ptr<nt::Transport> s, c;
      if (kind_ == Kind::kLossyUdp) {
        std::tie(s, c) = udp_pair(id);
      } else {
        auto pair = nt::make_loopback_pair();
        s = std::move(pair.first);
        c = std::move(pair.second);
      }
      server_->add_transport(wrap(std::move(s), root_counters_));
      clients_[static_cast<std::size_t>(id)].conn = std::move(c);
    }
  }

  void error(const std::string& what) {
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (error_.empty()) error_ = what;
    }
    stopping_.store(true);
    server_->request_stop(false);
  }

  bool send(ReplayClient& c, nt::MsgType type, int round,
            const std::vector<std::uint8_t>& payload) {
    nt::Frame f;
    f.type = type;
    f.round = static_cast<std::uint32_t>(round);
    f.client_id = static_cast<std::uint32_t>(c.id);
    f.payload = payload;
    if (kind_ != Kind::kLossyUdp)
      up_bytes_.fetch_add(static_cast<std::int64_t>(f.wire_size()),
                          std::memory_order_relaxed);
    return c.conn->send(f);
  }

  /// Round boundary seen by a driver: the first MODEL(r) (or, at
  /// r = rounds + 1, the first SHUTDOWN) anywhere in the fleet.
  void arrival(int r) {
    std::int64_t expected = 0;
    if (!first_arrival_[static_cast<std::size_t>(r)].compare_exchange_strong(
            expected, now_ns()))
      return;
    check_budget();
    const int first_timed = kWarmRounds + 1;
    if (r == first_timed || r == shape_.rounds + 1) {
      const bool start = r == first_timed;
      (start ? proc_cpu_a_ : proc_cpu_b_) = process_cpu_s();
      (start ? allocs_a_ : allocs_b_) = tensor::tensor_allocations();
      auto& cpu = start ? driver_cpu_a_ : driver_cpu_b_;
      for (std::size_t d = 0; d < cpu.size(); ++d)
        cpu[d] = cpu_clock_s(static_cast<clockid_t>(driver_clock_[d].load()));
    }
    // Traced runs alternate: odd timed rounds traced, even ones not.
    if (spans_ != nullptr)
      in_situ_tracing().store(r >= first_timed && r <= shape_.rounds &&
                              r % 2 == 1);
  }

  void handle(ReplayClient& c, const nt::Frame& f) {
    if (kind_ != Kind::kLossyUdp)
      down_bytes_.fetch_add(static_cast<std::int64_t>(f.wire_size()),
                            std::memory_order_relaxed);
    c.heard = true;
    const int r = static_cast<int>(f.round);
    switch (f.type) {
      case nt::MsgType::kModel: {
        if (r < 1 || r > shape_.rounds) {
          error("MODEL for round " + std::to_string(r) + " out of range");
          return;
        }
        if (r > c.model_round) {
          c.model_round = r;
          arrival(r);
          if (r == 1 && !released_.load()) {
            c.pending_score = true;
            if (model1_.fetch_add(1) + 1 == n_) {
              ready_ns_.store(now_ns());
              if (measured_) {
                released_.store(true);
              } else {
                stopping_.store(true);
                server_->request_stop(false);
              }
            }
            return;
          }
        } else {
          resends_.fetch_add(1);
        }
        if (stopping_.load()) return;
        send(c, nt::MsgType::kScore, r,
             nt::encode_f64(script_.at(r).scores[static_cast<std::size_t>(c.id)]));
        return;
      }
      case nt::MsgType::kSelect: {
        if (r < 1 || r > shape_.rounds) {
          error("SELECT for round " + std::to_string(r) + " out of range");
          return;
        }
        const Script::Round& sr = script_.at(r);
        const int j = sr.slot[static_cast<std::size_t>(c.id)];
        if (j < 0) {
          error("SELECT for client " + std::to_string(c.id) + " in round " +
                std::to_string(r) + ", which the script did not select");
          return;
        }
        const double ratio = nt::parse_f64(f.payload);
        if (std::bit_cast<std::uint64_t>(ratio) !=
            std::bit_cast<std::uint64_t>(sr.ratios[static_cast<std::size_t>(j)])) {
          error("SELECT ratio of client " + std::to_string(c.id) +
                " in round " + std::to_string(r) + " differs from the script");
          return;
        }
        if (r == c.select_round) resends_.fetch_add(1);
        c.select_round = r;
        send(c, nt::MsgType::kUpdate, r,
             sr.updates[static_cast<std::size_t>(c.id)]);
        return;
      }
      case nt::MsgType::kSkip:
        if (r >= 1 && r <= shape_.rounds &&
            script_.at(r).slot[static_cast<std::size_t>(c.id)] >= 0)
          error("SKIP for client " + std::to_string(c.id) + " in round " +
                std::to_string(r) + ", which the script selected");
        return;
      case nt::MsgType::kPing:
        send(c, nt::MsgType::kPong, r, {});
        return;
      case nt::MsgType::kShutdown:
        c.done = true;
        arrival(shape_.rounds + 1);
        return;
      default:
        return;  // WELCOME, PONG
    }
  }

  void drive(int d) {
    clockid_t cid{};
    pthread_getcpuclockid(pthread_self(), &cid);
    driver_clock_[static_cast<std::size_t>(d)].store(static_cast<long>(cid));
    const int lo = d * n_ / drivers_;
    const int hi = (d + 1) * n_ / drivers_;
    const std::vector<std::uint8_t> hello = nt::encode_hello(nt::kProtocolVersion);
    for (int i = lo; i < hi; ++i) {
      ReplayClient& c = clients_[static_cast<std::size_t>(i)];
      send(c, nt::MsgType::kHello, 0, hello);
      c.hello_at = Clock::now();
    }
    for (;;) {
      if (finish_.load()) return;
      if (Clock::now() > deadline_ && !stopping_.load())
        error("run exceeded its deadline");
      bool progress = false;
      int live = 0;
      const bool released = released_.load();
      for (int i = lo; i < hi; ++i) {
        ReplayClient& c = clients_[static_cast<std::size_t>(i)];
        if (c.done) continue;
        ++live;
        if (c.pending_score && released) {
          c.pending_score = false;
          send(c, nt::MsgType::kScore, 1,
               nt::encode_f64(script_.at(1).scores[static_cast<std::size_t>(c.id)]));
          progress = true;
        }
        // A datagram HELLO can be lost; say it again like a client whose
        // handshake timed out.
        if (kind_ == Kind::kLossyUdp && !c.heard &&
            Clock::now() - c.hello_at > std::chrono::seconds(1)) {
          send(c, nt::MsgType::kHello, 0, hello);
          c.hello_at = Clock::now();
        }
        for (;;) {
          std::optional<nt::Frame> f;
          try {
            f = c.conn->recv(std::chrono::milliseconds(0));
          } catch (const CheckError& e) {
            error(std::string("malformed stream at a client: ") + e.what());
            c.done = true;
            break;
          }
          if (!f) {
            if (c.conn->closed()) {
              c.done = true;
              if (!stopping_.load()) unexpected_closes_.fetch_add(1);
            }
            break;
          }
          progress = true;
          handle(c, *f);
          if (c.done) break;
        }
      }
      if (live == 0) return;
      if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  std::vector<ReplayClient> clients_;
  std::vector<std::thread> relay_threads_;
  std::vector<std::thread> driver_threads_;
  int drivers_;
  std::int64_t t_start_ns_ = 0;
  std::atomic<int> relays_running_{0};
  std::atomic<int> model1_{0};
  std::atomic<bool> released_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> finish_{false};
};

Kind kind_of(const std::string& workload) {
  if (workload == "fleet_1k") return Kind::kFleet;
  if (workload == "tier_1k") return Kind::kTier;
  return Kind::kLossyUdp;
}

}  // namespace

Result run_deployed(const Options& opt) {
  Result res;
  res.workload = opt.workload;
  res.seed = opt.seed;
  res.traced = opt.traced();
  declare_layer_metrics(res);
  const Kind kind = kind_of(opt.workload);
  const Shape shape = make_shape(opt);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDeadlineS));

  // Inputs: the task and the recorded client behaviour (all 4 threads).
  // A traced run keeps the recording loop's spans: the client-side layers
  // (train, score, compress) on this workload's task.
  SpanLog spans;
  SpanLog* span_log = opt.traced() ? &spans : nullptr;
  core::set_num_threads(kThreadBudget);
  const cli::TaskBundle task = cli::build_task(shape.spec);
  auto t0 = Clock::now();
  const Script script = record_script(shape, task, span_log);
  res.note("script_record_s", std::to_string(seconds_between(t0, Clock::now())));
  res.note("script_mb", std::to_string(static_cast<double>(script.bytes()) / 1e6));
  res.note("script_rounds", std::to_string(script.rounds.size()));

  // Thread split of the system under test: the session thread plus, for
  // fleet_1k and lossy_udp, one pool worker and two drivers; for tier_1k
  // two relay threads and one driver.
  const int drivers = kind == Kind::kTier ? 1 : 2;
  core::set_num_threads(kind == Kind::kTier ? 1 : 2);
  reset_peak_rss();

  std::vector<double> setups;
  const auto deploy = [&](bool measured) -> std::unique_ptr<Deployment> {
    auto d = std::make_unique<Deployment>(kind, shape, script, task, drivers,
                                          measured,
                                          measured ? span_log : nullptr,
                                          deadline);
    d->run();
    if (!d->error_.empty()) {
      res.fail(d->error_);
      return nullptr;
    }
    setups.push_back(d->setup_s());
    return d;
  };
  for (int rep = 0; rep < kSetupReps / 2; ++rep)
    if (!deploy(false)) return res;
  std::unique_ptr<Deployment> dep = deploy(true);
  if (!dep) return res;
  in_situ_tracing().store(false);
  const Deployment& m = *dep;
  check_budget();

  // --- End-to-end metrics.
  const int R = shape.rounds;
  const int T = R - kWarmRounds;
  // Round r runs from the first MODEL(r) to the first MODEL(r + 1) (the
  // first SHUTDOWN after the last round).
  std::vector<double> round_s;
  for (int r = kWarmRounds + 1; r <= R; ++r) {
    const auto i = static_cast<std::size_t>(r);
    round_s.push_back(1e-9 * static_cast<double>(m.first_arrival_[i + 1].load() -
                                                 m.first_arrival_[i].load()));
  }
  set_round_metrics(res, round_s);
  double driver_cpu = 0.0;
  double busy = 0.0;
  const double window_s = std::accumulate(round_s.begin(), round_s.end(), 0.0);
  for (std::size_t d = 0; d < m.driver_cpu_a_.size(); ++d) {
    const double c = m.driver_cpu_b_[d] - m.driver_cpu_a_[d];
    driver_cpu += c;
    busy = std::max(busy, per(c, window_s));
  }
  res.set("cpu_s_per_round",
          per(m.proc_cpu_b_ - m.proc_cpu_a_ - driver_cpu, T), "s");
  res.set("up_bytes_per_round", per(static_cast<double>(m.up_bytes_.load()), R),
          "B");
  res.set("down_bytes_per_round",
          per(static_cast<double>(m.down_bytes_.load()), R), "B");
  res.set("peak_rss_mb", peak_rss_mb(), "MB");

  // --- Correctness: the reference replay of the same script through the
  // AdaFL core must land on the session's exact weights.
  std::int64_t expected_updates = 0;
  for (int r = 1; r <= R; ++r)
    expected_updates += static_cast<std::int64_t>(script.at(r).selected.size());
  LayerCosts costs;
  if (opt.traced()) {
    core::set_num_threads(1);  // layer costs are single-threaded replays
    costs.first_round = kWarmRounds + 1;
  }
  const std::vector<float> expected = reference_replay(
      shape, script, task, R, res, opt.traced() ? &costs : nullptr);
  const std::uint32_t crc = weights_crc(m.server_->global());
  res.note("weights_crc32", hex32(crc));
  if (crc != weights_crc(expected))
    res.fail("session weights " + hex32(crc) + " differ from the reference " +
             hex32(weights_crc(expected)));
  if (static_cast<int>(m.log_.records.size()) != R)
    res.fail("session committed " + std::to_string(m.log_.records.size()) +
             " of " + std::to_string(R) + " rounds");
  for (const auto& rs : m.relay_stats_)
    if (!rs.completed) res.fail("a relay did not complete");
  const std::int64_t aggregated = m.server_->stats().selected_updates;
  const std::int64_t connections =
      shape.spec.clients + static_cast<std::int64_t>(m.relay_stats_.size());
  res.attempted = expected_updates + connections;
  res.failed = std::max<std::int64_t>(0, expected_updates - aggregated) +
               m.unexpected_closes_.load();
  if (res.failed > 0)
    res.fail(std::to_string(res.failed) + " updates lost or connections dropped");
  res.valid = busy <= kMaxDriverBusyShare;
  res.set("gen.busy_share", busy, "ratio");

  // --- Per-layer metrics (traced run).
  if (opt.traced()) {
    const int traced_rounds = (T + 1) / 2;  // odd timed rounds
    std::vector<double> traced_s, untraced_s;
    for (int r = kWarmRounds + 1; r <= R; ++r)
      (r % 2 == 1 ? traced_s : untraced_s)
          .push_back(round_s[static_cast<std::size_t>(r - kWarmRounds - 1)]);
    const TransportCounters& rc = m.root_counters_;
    const double send_ms = 1e-6 * static_cast<double>(rc.send_ns.load());
    const double recv_ms = 1e-6 * static_cast<double>(rc.recv_ns.load());
    const double tr = traced_rounds;
    set_transport_metrics(res, rc, tr);
    const double traced_round_ms =
        1e3 * per(std::accumulate(traced_s.begin(), traced_s.end(), 0.0),
                  traced_s.size());
    res.set("session.other_ms", traced_round_ms - per(send_ms + recv_ms, tr),
            "ms");
    res.set("session.resends", per(m.resends_.load(), R), "count");

    // Client-side layers: the recording loop's spans, per recorded round.
    const auto st = spans.stats();
    for (const char* name : {"fl.train", "core.score", "compress.dgc"}) {
      const auto it = st.find(name);
      res.set(std::string(name) + "_ms",
              it == st.end() ? 0.0
                             : per(it->second.total_ms, script.rounds.size()),
              "ms");
    }

    const double pr = costs.averaged_rounds;
    res.set("core.plan_ms", per(costs.plan_ms, pr), "ms");
    res.set("core.apply_ms", per(costs.apply_ms, pr), "ms");
    res.set("nn.eval_ms", per(costs.eval_ms, pr), "ms");
    set_replay_metrics(res, costs);
    res.set("tensor.allocs_per_round",
            per(static_cast<double>(m.allocs_b_ - m.allocs_a_), T), "count");

    if (kind == Kind::kLossyUdp) {
      const nt::FecStats& fs = m.fec_stats_;
      res.set("fec.datagrams_sent", per(fs.datagrams_sent.load(), R), "count");
      res.set("fec.datagrams_lost", per(fs.datagrams_lost.load(), R), "count");
      res.set("fec.datagrams_repaired", per(fs.datagrams_repaired.load(), R),
              "count");
      res.set("fec.unrecoverable_generations",
              per(fs.unrecoverable_generations.load(), R), "count");
      const double sent = static_cast<double>(m.up_bytes_.load() +
                                              m.server_dgram_sent_.load());
      const double parity = static_cast<double>(fs.parity_bytes.load());
      res.set("fec.parity_overhead", per(parity, sent - parity), "ratio");
    }
    if (kind == Kind::kTier) {
      res.set("relay.agg_frames", per(rc.agg_frames.load(), tr), "count");
      res.set("relay.up_bytes", per(m.parent_counters_.send_bytes.load(), tr),
              "B");
      res.set("relay.child_recv_hit_ratio",
              per(m.child_counters_.recv_frames.load(),
                  m.child_counters_.recv_calls.load()),
              "ratio");
    }
    res.set("trace.overhead_ratio",
            quantile(traced_s, 0.5) / quantile(untraced_s.empty() ? traced_s
                                                                   : untraced_s,
                                               0.5) -
                1.0,
            "ratio");
    // Share of the session thread's traced round time the layers account
    // for: in-situ transport time plus the replayed internal calls.
    const double internal =
        per(costs.plan_ms + costs.apply_ms + costs.eval_ms + costs.decode_ms +
                costs.model_encode_ms +
                (kind == Kind::kTier ? costs.agg_codec_ms : 0.0),
            pr);
    res.set("trace.coverage",
            per(per(send_ms + recv_ms, tr) + internal, traced_round_ms),
            "ratio");
    const std::string path =
        opt.trace_dir + "/" + opt.workload + ".trace.json";
    spans.write_chrome_json(path);
    res.note("chrome_trace", path);
    std::cout << "--- " << opt.workload
              << " spans (script recording, then traced rounds) ---\n";
    spans.print_self_times();
  }
  res.set("proc.threads_max", threads_max(), "count");

  dep.reset();
  while (setups.size() < kSetupReps)
    if (!deploy(false)) return res;
  res.set("setup_s", quantile(setups, 0.5), "s");
  std::string samples;
  for (const double v : setups)
    samples += (samples.empty() ? "" : ",") + std::to_string(v);
  res.note("setup_s_samples", samples);
  return res;
}

}  // namespace adafl::bench
