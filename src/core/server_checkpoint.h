// Durable, versioned server checkpoint for crash-recoverable FL training.
//
// The file extends the nn/checkpoint.h "ADFL" header with named sections
// (version 2): each section carries its own CRC-32, and a whole-file CRC-32
// trailer catches truncation anywhere. Writes are atomic — the bytes go to
// `<path>.tmp` and are rename()d into place only after a successful flush —
// so a crash mid-write can never leave a torn checkpoint behind; the
// previous checkpoint (if any) stays intact and resumable.
//
//   "ADFL"            4-byte magic (shared with the v1 model checkpoint)
//   u32  version      2
//   u32  section_count
//   per section:
//     str  name       u32 length prefix + bytes
//     u64  data_len
//     u32  crc        CRC-32 of the data bytes
//     u8   data[data_len]
//   u32  file_crc     CRC-32 of every preceding byte
//
// ServerCheckpoint is the typed payload: everything a server-side run needs
// for bitwise-identical resume — round index, global weights, AdaFL
// selection/utility state, FedAdam moments, SCAFFOLD variates, RNG streams,
// and (simulator paths) per-client loader/compressor state. The loader
// validates CRCs, section structure, and float finiteness, and throws with
// an actionable message rather than resuming from garbage.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tensor/rng.h"

namespace adafl::core {

constexpr std::uint32_t kServerCheckpointVersion = 2;

// --- Sectioned container (exposed for format tests). ---------------------

struct CheckpointSection {
  std::string name;
  std::vector<std::uint8_t> data;
};

/// Encodes the sectioned container into the exact byte image a checkpoint
/// file holds (magic, version, per-section CRCs, whole-file CRC trailer).
/// These are also the bytes a REPLICATE frame ships to a hot standby, so
/// wire validation and disk validation share one code path.
std::vector<std::uint8_t> encode_checkpoint_file_bytes(
    const std::vector<CheckpointSection>& sections);

/// CRC-validates and decodes a checkpoint byte image (the whole-file CRC is
/// checked first, then magic/version/section structure). `origin` names the
/// source in error messages (a path, or e.g. "REPLICATE payload"). Throws
/// std::runtime_error on any corruption, truncation, or version skew.
std::vector<CheckpointSection> decode_checkpoint_file_bytes(
    std::span<const std::uint8_t> bytes, const std::string& origin);

/// Atomically writes a pre-encoded checkpoint image to `path` (tmp + rename,
/// fsync'd). Throws std::runtime_error on I/O failure.
void write_checkpoint_bytes_atomic(const std::string& path,
                                   std::span<const std::uint8_t> bytes);

/// Atomically writes the sectioned container to `path` (tmp + rename,
/// fsync'd). Throws std::runtime_error on I/O failure.
void write_checkpoint_file(const std::string& path,
                           const std::vector<CheckpointSection>& sections);

/// Reads and CRC-validates a sectioned container. Throws on missing file,
/// bad magic/version, truncation, trailing bytes, or any CRC mismatch.
std::vector<CheckpointSection> read_checkpoint_file(const std::string& path);

/// Canonical checkpoint file name inside a --checkpoint-dir.
std::string checkpoint_path(const std::string& dir);

// --- Typed server checkpoint. --------------------------------------------

struct ServerCheckpoint {
  // "meta"
  std::string producer;          ///< writing path, e.g. "adafl-sync"
  std::uint32_t next_round = 1;  ///< first round the resumed run executes
  std::uint32_t total_rounds = 0;
  std::uint64_t seed = 0;
  /// Producer-defined config fingerprint (e.g. CRC of the WELCOME payload);
  /// resume refuses a checkpoint written under a different configuration.
  std::uint32_t config_crc = 0;
  double clock = 0.0;  ///< simulated wall-clock (simulator paths)

  // "global"
  std::vector<float> global;

  // "adafl" — AdaFlServerCore state beyond the global weights.
  struct AdaFlCoreState {
    std::vector<float> g_hat;
    std::int64_t selected_updates = 0;
    std::int64_t skipped_clients = 0;
    double min_ratio_used = 0.0;
    double max_ratio_used = 0.0;
    double mean_selected_per_round = 0.0;
    std::int64_t selected_sum = 0;
    std::int32_t rounds_planned = 0;
  };
  std::optional<AdaFlCoreState> adafl;

  // "adam" — FedAdam server moments.
  struct AdamState {
    std::vector<float> m, v;
    std::int64_t t = 0;
  };
  std::optional<AdamState> adam;

  // "scaffold" — server control variate.
  std::optional<std::vector<float>> c_global;

  // "rng" — server RNG stream + one stream per simulated link, plus the
  // scheduler's client visit order: trainers shuffle it in place round
  // over round, which makes the current permutation part of the RNG state.
  std::optional<tensor::RngState> server_rng;
  std::vector<tensor::RngState> link_rngs;
  std::vector<std::int32_t> schedule;

  // "clients" — simulator-side per-client state (empty on the deployed
  // path, where clients own their state across the wire).
  struct ClientState {
    tensor::RngState loader_rng;
    std::uint64_t loader_cursor = 0;
    std::vector<std::int32_t> loader_indices;
    std::vector<float> dgc_u, dgc_v;  ///< empty when the path has no DGC
    std::vector<float> c_local;       ///< empty unless SCAFFOLD
  };
  std::vector<ClientState> clients;
};

/// Encodes the typed checkpoint into its canonical section list.
std::vector<CheckpointSection> encode_server_checkpoint(
    const ServerCheckpoint& ck);

/// Decodes + validates a section list (structure, finiteness). Throws
/// CheckError on malformed content.
ServerCheckpoint decode_server_checkpoint(
    const std::vector<CheckpointSection>& sections);

/// encode + atomic write.
void save_server_checkpoint(const std::string& path,
                            const ServerCheckpoint& ck);

/// read + decode; all errors carry `path` and a reason.
ServerCheckpoint load_server_checkpoint(const std::string& path);

/// The one resume check of every producer. Loads the checkpoint at `path`,
/// checks it against `want` (the checkpoint the resuming run would write
/// now) and hands it to `restore`. The producer, seed, configuration
/// fingerprint and round count must match, the run must not be complete,
/// and the model, server state, client, link and schedule shapes must
/// agree. Each mismatch, and each CheckError `restore` throws, throws
/// std::runtime_error naming `path` and the reason, and how to go on.
/// Returns the checkpoint as `restore` left it.
ServerCheckpoint resume_checkpoint(
    const std::string& path, const ServerCheckpoint& want,
    const std::function<void(ServerCheckpoint&)>& restore);

}  // namespace adafl::core
