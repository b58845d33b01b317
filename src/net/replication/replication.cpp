#include "net/replication/replication.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "compress/bytes.h"
#include "core/server_checkpoint.h"
#include "metrics/trace.h"
#include "net/transport/frame.h"
#include "net/transport/session.h"
#include "net/transport/upstream_link.h"
#include "tensor/check.h"

namespace adafl::net::replication {

using transport::Frame;
using transport::kServerId;
using transport::MsgType;
using Clock = std::chrono::steady_clock;

// --- REPLICATE payload codec. --------------------------------------------

std::vector<std::uint8_t> encode_replicate(const ReplicatePayload& p) {
  std::vector<std::uint8_t> out;
  out.reserve(12 + p.image.size());
  bytes::put_u32(out, p.next_round);
  bytes::put_u64(out, p.image.size());
  out.insert(out.end(), p.image.begin(), p.image.end());
  return out;
}

ReplicatePayload parse_replicate(std::span<const std::uint8_t> payload) {
  bytes::Reader r(payload);
  ReplicatePayload p;
  p.next_round = r.u32();
  const std::uint64_t n = r.u64();
  auto img = r.raw(n);
  ADAFL_CHECK_MSG(r.remaining() == 0,
                  "replicate: " << r.remaining() << " trailing bytes");
  p.image.assign(img.begin(), img.end());
  return p;
}

// --- StandbyReplica. -----------------------------------------------------

StandbyReplica::StandbyReplica(StandbyConfig cfg, DialFn dial)
    : cfg_(std::move(cfg)), dial_(std::move(dial)) {}

bool StandbyReplica::install(const Frame& f, double t) {
  try {
    ReplicatePayload p = parse_replicate(f.payload);
    // Wire validation == disk validation: the image must decode exactly as
    // a checkpoint file would (whole-file CRC first, then structure).
    const auto sections =
        core::decode_checkpoint_file_bytes(p.image, "REPLICATE payload");
    const core::ServerCheckpoint ck = core::decode_server_checkpoint(sections);
    ADAFL_CHECK_MSG(ck.next_round == p.next_round,
                    "replicate: envelope round " << p.next_round
                                                 << " != checkpoint round "
                                                 << ck.next_round);
    ADAFL_CHECK_MSG(cfg_.expected_config_crc == 0 ||
                        ck.config_crc == cfg_.expected_config_crc,
                    "replicate: config crc mismatch (primary and standby "
                    "run different configurations)");
    // Only now — a fully validated, complete image — touch the disk, and
    // atomically: a crash mid-install leaves the previous checkpoint.
    core::write_checkpoint_bytes_atomic(
        core::checkpoint_path(cfg_.checkpoint_dir), p.image);
    ++received_;
    last_next_round_ = p.next_round;
    if (cfg_.tracer != nullptr) {
      cfg_.tracer->record(metrics::ev_replicate(
          static_cast<int>(p.next_round), -1,
          static_cast<std::int64_t>(p.image.size()), t));
      cfg_.tracer->flush();
    }
    return true;
  } catch (const std::exception&) {
    // Truncated, bit-flipped, version-skewed, config-skewed: count it and
    // keep the previous complete checkpoint.
    ++rejected_;
    return false;
  }
}

StandbyOutcome StandbyReplica::run() {
  transport::UpstreamLinkConfig lcfg;
  lcfg.heartbeat_interval = cfg_.ping_interval.count() > 0
                                ? cfg_.ping_interval
                                : cfg_.lease / 3;
  lcfg.liveness_timeout = cfg_.lease;
  lcfg.backoff = cfg_.backoff;
  lcfg.backoff.max_attempts = 0;  // the lease, not a budget, ends the wait
  transport::UpstreamLink link(
      lcfg, [this](std::size_t) { return dial_(); }, 1);
  auto lease_deadline = Clock::now() + cfg_.lease;

  for (;;) {
    if (stop_.load()) return StandbyOutcome::kStopped;
    const auto lease_left = lease_deadline - Clock::now();
    if (lease_left <= Clock::duration::zero()) return StandbyOutcome::kPromote;

    if (link.connected()) {
      const auto poll = std::min<Clock::duration>(cfg_.recv_poll, lease_left);
      if (const std::optional<Frame> f = link.recv(
              std::chrono::duration_cast<std::chrono::milliseconds>(poll))) {
        lease_deadline = Clock::now() + cfg_.lease;  // any frame renews
        switch (f->type) {
          case MsgType::kReplicate:
            install(*f, link.trace_now());
            break;
          case MsgType::kShutdown:
            link.close();
            return StandbyOutcome::kStandDown;
          case MsgType::kPing:
            link.send(Frame{MsgType::kPong, 0, kServerId, {}});
            break;
          default:
            break;  // kPong and anything else: lease renewal is the point
        }
        continue;
      }
    }
    if (link.poll() == transport::UpstreamLink::Event::kConnected)
      link.send(Frame{MsgType::kStandbyHello, 0, kServerId,
                      transport::encode_hello(transport::kProtocolVersion)});
    else if (!link.connected())
      // Backoff, but never sleep past the lease: promotion latency is the
      // product this loop sells.
      std::this_thread::sleep_until(
          std::min(link.next_poll(), lease_deadline));
  }
}

}  // namespace adafl::net::replication
