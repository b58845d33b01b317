// The client role's round handlers, free of I/O and time: the one
// implementation ClientSession and flswarm both run. A server frame goes
// in; the reply frame, if any, and an outcome come out.
//
//   WELCOME   bootstraps the FlClient and DGC compressor once (a rejoin's
//             WELCOME keeps the batch-loader cursor and the residual)
//   MODEL(r)  trains once per round, replies SCORE (a re-sent MODEL
//             re-scores the cached delta)
//   SELECT(r) compresses once per round, replies UPDATE (a duplicate
//             re-sends the cached bytes: compressing twice would corrupt
//             the DGC residual)                       -> kRoundDone
//   SKIP(r)   accumulates the delta once              -> kRoundDone
//   PING      replies PONG;  SHUTDOWN                 -> kShutdown
//
// MODEL before WELCOME, and SELECT/SKIP for any round but the last trained
// one, are ignored. A malformed payload throws CheckError before any state
// changes, so round state and the residual survive the caller's redial.
#pragma once

#include <optional>
#include <vector>

#include "compress/dgc.h"
#include "net/transport/session.h"

namespace adafl::net::transport {

class ClientProtocol {
 public:
  enum class Outcome { kNone, kRoundDone, kShutdown };
  struct Step {
    Outcome outcome = Outcome::kNone;
    std::optional<Frame> reply;  ///< SCORE, UPDATE or PONG
  };

  ClientProtocol(int client_id, ClientSession::BootstrapFn bootstrap);

  /// The HELLO that opens every connection.
  Frame hello() const;

  /// Handles one server frame.
  Step handle(const Frame& f);

  int rounds_trained() const { return rounds_trained_; }
  int updates_sent() const { return updates_sent_; }
  int skips() const { return skips_; }
  /// Null until the first WELCOME.
  const fl::FlClient* client() const { return client_ ? &*client_ : nullptr; }
  const compress::DgcCompressor* compressor() const {
    return comp_ ? &*comp_ : nullptr;
  }

 private:
  std::uint32_t id_;
  ClientSession::BootstrapFn bootstrap_;
  std::optional<fl::FlClient> client_;
  std::optional<compress::DgcCompressor> comp_;
  core::AdaFlParams params_;

  fl::FlClient::LocalResult res_;
  int trained_round_ = 0;
  int uploaded_round_ = 0;
  int skipped_round_ = 0;
  UpdatePayload update_;                     ///< reused compression output
  std::vector<std::uint8_t> wire_scratch_;   ///< reused wire staging buffer
  std::vector<std::uint8_t> cached_update_;  ///< UPDATE of uploaded_round_

  int rounds_trained_ = 0;
  int updates_sent_ = 0;
  int skips_ = 0;
};

}  // namespace adafl::net::transport
