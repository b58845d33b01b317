// Harness for the hierarchical-tier tests: runs the same small AdaFL task
// through a tiered deployment — root ServerSession, one or more RelaySession
// mid-tiers, leaf ClientSessions — so the result can be compared bitwise
// against the flat deployed path and the in-process simulator with the same
// AdaFlParams::agg_group (the tier-transparency guarantee).
//
// Topology is declarative: each RelaySpec names its leaf range and parent
// (the root or another relay, for 3-level trees). Leaves are auto-routed to
// the most specific relay covering their id; standby relays of the same
// range land later in the leaf's dial rotation list, so killing the primary
// makes the leaves fail over exactly as flclient --server=a,b does.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "deployed_test_util.h"
#include "net/relay/relay.h"

namespace adafl::testutil {

struct RelaySpec {
  int base = 0;
  int count = 0;
  /// -1 = dial the root server; otherwise the index of the parent relay.
  int parent = -1;
  /// Dormant until a child dials (hot-standby relay semantics).
  bool standby = false;
};

enum class TierLink {
  kLoopback,  ///< in-process stream pairs (the TCP framing, minus the kernel)
  /// Real sockets on 127.0.0.1; every relay serves its children on an
  /// EventLoop, as flrelay does.
  kTcp,
  kUdpFec,    ///< FEC-coded datagram transport over in-process links
};

struct TieredResult {
  fl::TrainLog log;
  std::vector<float> global;
  core::AdaFlStats stats;
  std::vector<net::transport::ClientRunStats> clients;
  std::vector<net::relay::RelayRunStats> relay_stats;
};

struct TieredOptions {
  TierLink link = TierLink::kLoopback;
  /// kTcp only: drive the root with the epoll event loop too (the flserver
  /// production path) instead of a classic accept thread, so the relay
  /// handshake and UPDATE-AGG dispatch run through the loop integration.
  bool root_event_loop = false;
  metrics::Tracer* tracer = nullptr;
  /// Per-relay tracers, by relay index (a Tracer is single-threaded, so
  /// each relay needs its own); missing entries run untraced.
  std::vector<metrics::Tracer*> relay_tracers;
  /// Decorates each leaf's transport on every (re)dial — script faults here.
  TransportWrapFn leaf_wrap = nullptr;
  /// Tweaks a leaf's session config (backoff, liveness) before it runs.
  std::function<void(int id, net::transport::ClientSessionConfig&)>
      leaf_cfg_tweak = nullptr;
  /// FEC shape for TierLink::kUdpFec.
  net::transport::UdpFecConfig fec;
  int quorum = 0;  ///< 0 = wait for every expected client
  std::chrono::milliseconds round_deadline{30000};
  /// Scripted mid-run relay crash: relay `kill_relay` severs its parent
  /// link on `kill_round`'s MODEL and stops abruptly (children dropped
  /// without SHUTDOWN), like a kill -9 of the flrelay process.
  int kill_relay = -1;
  int kill_round = 0;
  /// The root's and every relay's idle_poll; the binaries' default.
  std::chrono::milliseconds idle_poll =
      net::transport::ServerSessionConfig{}.idle_poll;
};

/// One relay plus the scaffolding that makes it dial-able and killable.
struct RelayRuntime {
  // kTcp only: the listener outlives the loop, which outlives the session
  // that stops it.
  std::unique_ptr<net::transport::TcpListener> listener;
  std::unique_ptr<net::transport::EventLoop> loop;
  std::unique_ptr<net::relay::RelaySession> session;
  std::thread thread;
  std::atomic<bool> alive{true};
  net::relay::RelayRunStats stats;
};

inline TieredResult run_deployed_tiered(const cli::TaskSpec& spec,
                                        const fl::ClientTrainConfig& client,
                                        const core::AdaFlParams& params,
                                        int rounds,
                                        const std::vector<RelaySpec>& relays,
                                        const TieredOptions& opt = {}) {
  using namespace net::transport;
  ADAFL_CHECK_MSG(params.agg_group > 0,
                  "tier harness: tiered runs need agg_group > 0");
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.tracer = opt.tracer;
  scfg.quorum = opt.quorum;
  scfg.round_deadline = opt.round_deadline;
  scfg.idle_poll = opt.idle_poll;
  scfg.retransmit_nudge = std::chrono::milliseconds(
      opt.link == TierLink::kLoopback ? 100 : 300);
  ServerSession server(scfg, task.factory, &task.test);

  const bool tcp = opt.link == TierLink::kTcp;
  const bool udp = opt.link == TierLink::kUdpFec;

  std::unique_ptr<TcpListener> root_listener;
  std::atomic<bool> accept_done{false};
  std::thread root_acceptor;
  std::unique_ptr<EventLoop> root_loop;
  if (tcp) {
    root_listener = std::make_unique<TcpListener>(0);
    if (opt.root_event_loop) {
      root_loop = std::make_unique<EventLoop>(EventLoopConfig{});
      root_loop->adopt_listener(root_listener->fd());
      server.attach_event_loop(root_loop.get());
    } else {
      root_acceptor = std::thread([&] {
        while (!accept_done.load()) {
          auto t = root_listener->accept(std::chrono::milliseconds(20));
          if (t) server.add_transport(std::move(t));
        }
      });
    }
  }

  // Dials the root server; nullptr on failure (kTcp connection refused).
  const auto connect_root = [&]() -> std::unique_ptr<Transport> {
    if (tcp)
      return TcpTransport::connect("127.0.0.1", root_listener->port(),
                                   std::chrono::milliseconds(1000));
    if (udp) {
      auto [a, b] = make_datagram_loopback_pair();
      server.add_transport(std::make_unique<UdpTransport>(std::move(a),
                                                          opt.fec));
      return std::make_unique<UdpTransport>(std::move(b), opt.fec);
    }
    auto pair = make_loopback_pair();
    server.add_transport(std::move(pair.first));
    return std::move(pair.second);
  };

  std::vector<std::unique_ptr<RelayRuntime>> rts;
  for (std::size_t i = 0; i < relays.size(); ++i)
    rts.push_back(std::make_unique<RelayRuntime>());

  // Dials relay `i`'s child side; nullptr when the relay is gone, so a
  // leaf's backoff budget drains fast and it rotates to the standby.
  const auto connect_relay =
      [&](std::size_t i) -> std::unique_ptr<Transport> {
    RelayRuntime& rt = *rts[i];
    if (!rt.alive.load()) return nullptr;
    if (tcp)
      return TcpTransport::connect("127.0.0.1", rt.listener->port(),
                                   std::chrono::milliseconds(1000));
    if (udp) {
      auto [a, b] = make_datagram_loopback_pair();
      rt.session->add_child_transport(
          std::make_unique<UdpTransport>(std::move(a), opt.fec));
      return std::make_unique<UdpTransport>(std::move(b), opt.fec);
    }
    auto pair = make_loopback_pair();
    rt.session->add_child_transport(std::move(pair.first));
    return std::move(pair.second);
  };

  for (std::size_t i = 0; i < relays.size(); ++i) {
    const RelaySpec& rs = relays[i];
    RelayRuntime& rt = *rts[i];
    net::relay::RelayConfig rcfg;
    rcfg.base = rs.base;
    rcfg.count = rs.count;
    rcfg.standby = rs.standby;
    const bool killed_here = static_cast<int>(i) == opt.kill_relay;
    // The killed relay's parent link is a FaultyTransport, which cannot
    // signal: poll it about as often as the other relays are woken, or its
    // range can bind after a quorum closed round 1 without it.
    rcfg.idle_poll =
        killed_here ? std::chrono::milliseconds(2) : opt.idle_poll;
    rcfg.heartbeat_interval = std::chrono::milliseconds(300);
    rcfg.liveness_timeout = std::chrono::milliseconds(3000);
    rcfg.retransmit_nudge = std::chrono::milliseconds(
        opt.link == TierLink::kLoopback ? 100 : 300);
    rcfg.backoff.initial = std::chrono::milliseconds(10);
    rcfg.backoff.max = std::chrono::milliseconds(100);
    rcfg.backoff.max_attempts = 50;
    if (i < opt.relay_tracers.size()) rcfg.tracer = opt.relay_tracers[i];
    const int parent_idx = rs.parent;
    rt.session = std::make_unique<net::relay::RelaySession>(
        rcfg,
        [&, parent_idx, killed_here, i](std::size_t) {
          std::unique_ptr<Transport> t =
              parent_idx < 0
                  ? connect_root()
                  : connect_relay(static_cast<std::size_t>(parent_idx));
          if (!t || !killed_here) return t;
          // The scripted crash: sever on the kill round's MODEL and stop
          // the whole relay abruptly — children get no goodbye, exactly
          // like kill -9 on a real flrelay.
          FaultPlan plan;
          plan.sever_on_recv(MsgType::kModel, opt.kill_round);
          auto faulty = std::make_unique<FaultyTransport>(std::move(t),
                                                          std::move(plan));
          faulty->set_on_fault([&rt](const FaultRule&, const Frame&) {
            rt.alive.store(false);
            if (rt.listener) rt.listener->close();
            rt.session->request_stop();
          });
          return std::unique_ptr<Transport>(std::move(faulty));
        },
        1);
    if (tcp) {
      rt.listener = std::make_unique<TcpListener>(0);
      rt.loop = std::make_unique<EventLoop>(EventLoopConfig{});
      rt.loop->adopt_listener(rt.listener->fd());
      rt.session->attach_event_loop(rt.loop.get());
    }
    rt.thread = std::thread([&rt] { rt.stats = rt.session->run(); });
  }

  // Leaf routing: most specific covering relay; standbys after primaries.
  const auto dial_list_for = [&](int id) {
    std::vector<std::size_t> list;
    int best = std::numeric_limits<int>::max();
    for (const RelaySpec& rs : relays)
      if (id >= rs.base && id < rs.base + rs.count)
        best = std::min(best, rs.count);
    for (int pass = 0; pass < 2; ++pass)
      for (std::size_t i = 0; i < relays.size(); ++i)
        if (id >= relays[i].base &&
            id < relays[i].base + relays[i].count &&
            relays[i].count == best &&
            relays[i].standby == (pass == 1))
          list.push_back(i);
    ADAFL_CHECK_MSG(!list.empty(),
                    "tier harness: leaf " << id << " has no covering relay");
    return list;
  };

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  TieredResult res;
  res.clients.resize(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = test_client_config(id);
      if (opt.leaf_cfg_tweak) opt.leaf_cfg_tweak(id, ccfg);
      const auto dials = dial_list_for(id);
      ClientSession cs(
          ccfg,
          [&, id, dials](std::size_t ep) -> std::unique_ptr<Transport> {
            auto t = connect_relay(dials[ep % dials.size()]);
            if (t && opt.leaf_wrap) t = opt.leaf_wrap(id, std::move(t));
            return t;
          },
          dials.size(),
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      res.clients[static_cast<std::size_t>(id)] = cs.run();
    });
  }

  res.log = server.run();
  for (auto& t : threads) t.join();
  for (auto& rtp : rts) {
    RelayRuntime& rt = *rtp;
    rt.session->request_stop();
    if (rt.thread.joinable()) rt.thread.join();
    if (rt.listener) rt.listener->close();
    res.relay_stats.push_back(rt.stats);
  }
  if (tcp) {
    accept_done.store(true);
    root_listener->close();
    if (root_acceptor.joinable()) root_acceptor.join();
  }
  res.global = server.global();
  res.stats = server.stats();
  return res;
}

/// Flat (relay-free) loopback run where `crash_ids` permanently die on
/// `crash_round`'s MODEL: the connection severs and every redial is refused,
/// so the server continues on quorum with the survivors. The twin of a
/// tiered run whose relay is killed on the same round without a standby.
inline DeployedResult run_deployed_flat_crash(
    const cli::TaskSpec& spec, const fl::ClientTrainConfig& client,
    const core::AdaFlParams& params, int rounds,
    const std::set<int>& crash_ids, int crash_round, int quorum,
    std::chrono::milliseconds round_deadline) {
  using namespace net::transport;
  auto task = cli::build_task(spec);
  ServerSessionConfig scfg = make_server_config(spec, client, params, rounds);
  scfg.quorum = quorum;
  scfg.round_deadline = round_deadline;
  scfg.retransmit_nudge = std::chrono::milliseconds(100);
  ServerSession server(scfg, task.factory, &task.test);

  const int n = spec.clients;
  std::vector<std::optional<cli::TaskBundle>> bundles(
      static_cast<std::size_t>(n));
  DeployedResult res;
  res.clients.resize(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int id = 0; id < n; ++id) {
    threads.emplace_back([&, id] {
      ClientSessionConfig ccfg = test_client_config(id);
      const bool crashes = crash_ids.count(id) != 0;
      auto crash_fired = std::make_shared<std::atomic<bool>>(false);
      if (crashes) {  // drain the redial budget fast after the crash
        ccfg.backoff.initial = std::chrono::milliseconds(1);
        ccfg.backoff.max = std::chrono::milliseconds(10);
        ccfg.backoff.max_attempts = 5;
      }
      ClientSession cs(
          ccfg,
          [&server, crashes, crash_round,
           crash_fired]() -> std::unique_ptr<Transport> {
            if (crash_fired->load()) return nullptr;  // stays dead
            auto pair = make_loopback_pair();
            server.add_transport(std::move(pair.first));
            std::unique_ptr<Transport> t = std::move(pair.second);
            if (crashes) {
              FaultPlan plan;
              plan.sever_on_recv(MsgType::kModel, crash_round);
              auto faulty = std::make_unique<FaultyTransport>(
                  std::move(t), std::move(plan));
              faulty->set_on_fault(
                  [crash_fired](const FaultRule&, const Frame&) {
                    crash_fired->store(true);
                  });
              t = std::move(faulty);
            }
            return t;
          },
          make_bootstrap(&bundles[static_cast<std::size_t>(id)]));
      res.clients[static_cast<std::size_t>(id)] = cs.run();
    });
  }
  res.log = server.run();
  for (auto& t : threads) t.join();
  res.global = server.global();
  res.stats = server.stats();
  return res;
}

}  // namespace adafl::testutil
