#include "net/transport/client_protocol.h"

#include "core/utility.h"
#include "metrics/registry.h"
#include "tensor/check.h"
#include "tensor/tensor.h"

namespace adafl::net::transport {

ClientProtocol::ClientProtocol(int client_id,
                               ClientSession::BootstrapFn bootstrap)
    : id_(static_cast<std::uint32_t>(client_id)),
      bootstrap_(std::move(bootstrap)) {
  ADAFL_CHECK_MSG(client_id >= 0, "ClientProtocol: negative client id");
  ADAFL_CHECK_MSG(bootstrap_ != nullptr, "ClientProtocol: null bootstrap");
}

Frame ClientProtocol::hello() const {
  return Frame{MsgType::kHello, 0, id_, encode_hello(kProtocolVersion)};
}

ClientProtocol::Step ClientProtocol::handle(const Frame& f) {
  const int round = static_cast<int>(f.round);
  switch (f.type) {
    case MsgType::kWelcome: {
      const WelcomeInfo w = parse_welcome(f.payload);
      if (!client_)
        client_.emplace(bootstrap_(w.config, static_cast<int>(id_), w.params));
      ADAFL_CHECK_MSG(
          static_cast<std::uint64_t>(client_->param_count()) == w.param_count,
          "session: bootstrap model has " << client_->param_count()
                                          << " params, server expects "
                                          << w.param_count);
      params_ = w.params;
      if (!comp_)
        comp_.emplace(static_cast<std::int64_t>(w.param_count), params_.dgc);
      return {};
    }
    case MsgType::kModel: {
      if (!client_) return {};  // WELCOME must precede MODEL
      const ModelPayload m = parse_model(f.payload);
      ADAFL_CHECK_MSG(
          m.global.size() == static_cast<std::size_t>(client_->param_count()),
          "session: MODEL dimension mismatch");
      if (trained_round_ != round) {  // a re-sent MODEL never retrains
        metrics::PhaseScope prof("client-train");
        client_->train_from_into(m.global, res_);
        trained_round_ = round;
        ++rounds_trained_;
      }
      const double score =
          core::utility_score(params_.utility, res_.delta, m.g_hat,
                              params_.utility.bw_ref, params_.utility.bw_ref);
      return {Outcome::kNone,
              Frame{MsgType::kScore, f.round, id_, encode_f64(score)}};
    }
    case MsgType::kSelect: {
      if (round != trained_round_ || !comp_) return {};  // stale
      if (uploaded_round_ != round) {
        metrics::PhaseScope prof("compress");
        const double ratio = parse_f64(f.payload);
        comp_->compress_into(res_.delta, ratio, update_.msg);
        update_.num_examples = res_.num_examples;
        update_.mean_loss = res_.mean_loss;
        update_.raw_delta_norm = tensor::l2_norm(res_.delta);
        encode_update_into(update_, cached_update_, wire_scratch_);
        uploaded_round_ = round;
      }
      // A duplicate SELECT (reconnect race) re-sends the cached bytes.
      ++updates_sent_;
      return {Outcome::kRoundDone,
              Frame{MsgType::kUpdate, f.round, id_, cached_update_}};
    }
    case MsgType::kSkip:
      if (round != trained_round_ || !comp_ || skipped_round_ == round)
        return {};
      skipped_round_ = round;
      if (params_.accumulate_unselected) comp_->accumulate(res_.delta);
      ++skips_;
      return {Outcome::kRoundDone, std::nullopt};
    case MsgType::kPing:
      return {Outcome::kNone, Frame{MsgType::kPong, f.round, id_, {}}};
    case MsgType::kShutdown:
      return {Outcome::kShutdown, std::nullopt};
    default:
      return {};  // PONG and anything unexpected: ignore
  }
}

}  // namespace adafl::net::transport
