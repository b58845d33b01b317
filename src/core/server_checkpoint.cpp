#include "core/server_checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "compress/bytes.h"
#include "net/transport/crc32.h"
#include "tensor/check.h"

namespace adafl::core {

namespace {

constexpr char kMagic[4] = {'A', 'D', 'F', 'L'};

using net::transport::crc32;

/// The canonical section set, in file order. A v2 checkpoint has exactly
/// these sections; anything else is rejected (wrong count, unknown or
/// duplicated names all fail decode).
constexpr const char* kSectionNames[] = {"meta",     "global", "adafl",
                                         "adam",     "scaffold", "rng",
                                         "clients"};
constexpr std::size_t kSectionCount =
    sizeof(kSectionNames) / sizeof(kSectionNames[0]);

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw std::runtime_error("server checkpoint " + path + ": " + why);
}

void put_f32_vec(std::vector<std::uint8_t>& out, const std::vector<float>& v) {
  bytes::put_u64(out, v.size());
  for (float x : v) bytes::put_f32(out, x);
}

std::vector<float> get_f32_vec(bytes::Reader& r, const char* what) {
  const std::uint64_t n = r.u64();
  // Divide instead of multiplying: a forged n near 2^62 would wrap n * 4.
  ADAFL_CHECK_MSG(n <= r.remaining() / 4,
                  "checkpoint: " << what << " length " << n
                                 << " exceeds section");
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = r.f32();
  return v;
}

void require_finite(const std::vector<float>& v, const char* what) {
  for (float x : v)
    ADAFL_CHECK_MSG(std::isfinite(x),
                    "checkpoint: non-finite value in " << what);
}

void put_rng(std::vector<std::uint8_t>& out, const tensor::RngState& s) {
  for (int i = 0; i < 4; ++i) bytes::put_u64(out, s.s[i]);
  bytes::put_f64(out, s.cached);
  bytes::put_u8(out, s.has_cached ? 1 : 0);
}

tensor::RngState get_rng(bytes::Reader& r) {
  tensor::RngState s;
  for (int i = 0; i < 4; ++i) s.s[i] = r.u64();
  s.cached = r.f64();
  const std::uint8_t flag = r.u8();
  ADAFL_CHECK_MSG(flag <= 1, "checkpoint: bad rng cache flag");
  s.has_cached = flag != 0;
  return s;
}

void expect_consumed(const bytes::Reader& r, const char* section) {
  ADAFL_CHECK_MSG(r.remaining() == 0,
                  "checkpoint: trailing bytes in section '" << section << "'");
}

}  // namespace

// --- Sectioned container. -------------------------------------------------

std::string checkpoint_path(const std::string& dir) {
  return dir + "/server.ckpt";
}

std::vector<std::uint8_t> encode_checkpoint_file_bytes(
    const std::vector<CheckpointSection>& sections) {
  std::vector<std::uint8_t> buf(kMagic, kMagic + 4);
  bytes::put_u32(buf, kServerCheckpointVersion);
  bytes::put_u32(buf, static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    bytes::put_str(buf, s.name);
    bytes::put_u64(buf, s.data.size());
    bytes::put_u32(buf, crc32(s.data));
    buf.insert(buf.end(), s.data.begin(), s.data.end());
  }
  bytes::put_u32(buf, crc32(buf));
  return buf;
}

void write_checkpoint_bytes_atomic(const std::string& path,
                                   std::span<const std::uint8_t> buf) {
  // Atomic replace: write + fsync a sibling tmp file, then rename() over the
  // destination. A crash at any point leaves either the old checkpoint or
  // the complete new one — never a torn file under `path`.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail(path, std::string("cannot open ") + tmp + ": " +
                            std::strerror(errno));
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::write(fd, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      fail(path, std::string("write failed: ") + std::strerror(err));
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    fail(path, std::string("fsync failed: ") + std::strerror(err));
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail(path, std::string("rename failed: ") + std::strerror(err));
  }
}

void write_checkpoint_file(const std::string& path,
                           const std::vector<CheckpointSection>& sections) {
  write_checkpoint_bytes_atomic(path, encode_checkpoint_file_bytes(sections));
}

std::vector<CheckpointSection> decode_checkpoint_file_bytes(
    std::span<const std::uint8_t> buf, const std::string& origin) {
  if (buf.size() < 16)
    fail(origin, "truncated (too small to be a checkpoint)");

  // Whole-file CRC first: catches truncation / bit rot anywhere, including
  // inside section headers.
  const std::span<const std::uint8_t> body(buf.data(), buf.size() - 4);
  bytes::Reader tail(
      std::span<const std::uint8_t>(buf.data() + buf.size() - 4, 4));
  if (tail.u32() != crc32(body)) fail(origin, "file CRC mismatch (torn write?)");

  try {
    bytes::Reader r(body);
    const auto magic = r.raw(4);
    if (std::memcmp(magic.data(), kMagic, 4) != 0)
      fail(origin, "bad magic (not an ADFL file)");
    const std::uint32_t version = r.u32();
    if (version != kServerCheckpointVersion)
      fail(origin, "unsupported version " + std::to_string(version) +
                       " (expected " +
                       std::to_string(kServerCheckpointVersion) + ")");
    const std::uint32_t count = r.u32();
    std::vector<CheckpointSection> sections;
    sections.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      CheckpointSection s;
      s.name = r.str();
      const std::uint64_t len = r.u64();
      const std::uint32_t crc = r.u32();
      ADAFL_CHECK_MSG(len <= r.remaining(),
                      "section '" << s.name << "' length " << len
                                  << " exceeds file");
      const auto data = r.raw(static_cast<std::size_t>(len));
      s.data.assign(data.begin(), data.end());
      if (crc32(s.data) != crc)
        fail(origin, "section '" + s.name + "' CRC mismatch");
      sections.push_back(std::move(s));
    }
    ADAFL_CHECK_MSG(r.remaining() == 0, "trailing bytes after sections");
    return sections;
  } catch (const CheckError& e) {
    fail(origin, e.what());
  }
}

std::vector<CheckpointSection> read_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    fail(path, "cannot open (no checkpoint to resume from? pass a directory "
               "that holds server.ckpt)");
  std::vector<std::uint8_t> buf((std::istreambuf_iterator<char>(is)),
                                std::istreambuf_iterator<char>());
  return decode_checkpoint_file_bytes(buf, path);
}

// --- Typed encode / decode. ----------------------------------------------

std::vector<CheckpointSection> encode_server_checkpoint(
    const ServerCheckpoint& ck) {
  std::vector<CheckpointSection> out;

  CheckpointSection meta{"meta", {}};
  bytes::put_str(meta.data, ck.producer);
  bytes::put_u32(meta.data, ck.next_round);
  bytes::put_u32(meta.data, ck.total_rounds);
  bytes::put_u64(meta.data, ck.seed);
  bytes::put_u32(meta.data, ck.config_crc);
  bytes::put_f64(meta.data, ck.clock);
  out.push_back(std::move(meta));

  CheckpointSection global{"global", {}};
  put_f32_vec(global.data, ck.global);
  out.push_back(std::move(global));

  CheckpointSection adafl{"adafl", {}};
  bytes::put_u8(adafl.data, ck.adafl ? 1 : 0);
  if (ck.adafl) {
    const auto& a = *ck.adafl;
    put_f32_vec(adafl.data, a.g_hat);
    bytes::put_u64(adafl.data, static_cast<std::uint64_t>(a.selected_updates));
    bytes::put_u64(adafl.data, static_cast<std::uint64_t>(a.skipped_clients));
    bytes::put_f64(adafl.data, a.min_ratio_used);
    bytes::put_f64(adafl.data, a.max_ratio_used);
    bytes::put_f64(adafl.data, a.mean_selected_per_round);
    bytes::put_u64(adafl.data, static_cast<std::uint64_t>(a.selected_sum));
    bytes::put_u32(adafl.data, static_cast<std::uint32_t>(a.rounds_planned));
  }
  out.push_back(std::move(adafl));

  CheckpointSection adam{"adam", {}};
  bytes::put_u8(adam.data, ck.adam ? 1 : 0);
  if (ck.adam) {
    put_f32_vec(adam.data, ck.adam->m);
    put_f32_vec(adam.data, ck.adam->v);
    bytes::put_u64(adam.data, static_cast<std::uint64_t>(ck.adam->t));
  }
  out.push_back(std::move(adam));

  CheckpointSection scaffold{"scaffold", {}};
  bytes::put_u8(scaffold.data, ck.c_global ? 1 : 0);
  if (ck.c_global) put_f32_vec(scaffold.data, *ck.c_global);
  out.push_back(std::move(scaffold));

  CheckpointSection rng{"rng", {}};
  bytes::put_u8(rng.data, ck.server_rng ? 1 : 0);
  if (ck.server_rng) put_rng(rng.data, *ck.server_rng);
  bytes::put_u32(rng.data, static_cast<std::uint32_t>(ck.link_rngs.size()));
  for (const auto& s : ck.link_rngs) put_rng(rng.data, s);
  bytes::put_u32(rng.data, static_cast<std::uint32_t>(ck.schedule.size()));
  for (std::int32_t i : ck.schedule)
    bytes::put_u32(rng.data, static_cast<std::uint32_t>(i));
  out.push_back(std::move(rng));

  CheckpointSection clients{"clients", {}};
  bytes::put_u32(clients.data, static_cast<std::uint32_t>(ck.clients.size()));
  for (const auto& c : ck.clients) {
    put_rng(clients.data, c.loader_rng);
    bytes::put_u64(clients.data, c.loader_cursor);
    bytes::put_u64(clients.data, c.loader_indices.size());
    for (std::int32_t i : c.loader_indices)
      bytes::put_u32(clients.data, static_cast<std::uint32_t>(i));
    put_f32_vec(clients.data, c.dgc_u);
    put_f32_vec(clients.data, c.dgc_v);
    put_f32_vec(clients.data, c.c_local);
  }
  out.push_back(std::move(clients));

  return out;
}

ServerCheckpoint decode_server_checkpoint(
    const std::vector<CheckpointSection>& sections) {
  ADAFL_CHECK_MSG(sections.size() == kSectionCount,
                  "checkpoint: expected " << kSectionCount << " sections, got "
                                          << sections.size());
  for (std::size_t i = 0; i < kSectionCount; ++i)
    ADAFL_CHECK_MSG(sections[i].name == kSectionNames[i],
                    "checkpoint: section " << i << " is '" << sections[i].name
                                           << "', expected '"
                                           << kSectionNames[i] << "'");

  ServerCheckpoint ck;
  {
    bytes::Reader r(sections[0].data);
    ck.producer = r.str();
    ck.next_round = r.u32();
    ck.total_rounds = r.u32();
    ck.seed = r.u64();
    ck.config_crc = r.u32();
    ck.clock = r.f64();
    ADAFL_CHECK_MSG(std::isfinite(ck.clock) && ck.clock >= 0.0,
                    "checkpoint: bad clock value");
    ADAFL_CHECK_MSG(ck.next_round >= 1, "checkpoint: next_round must be >= 1");
    expect_consumed(r, "meta");
  }
  {
    bytes::Reader r(sections[1].data);
    ck.global = get_f32_vec(r, "global");
    ADAFL_CHECK_MSG(!ck.global.empty(), "checkpoint: empty global weights");
    require_finite(ck.global, "global weights");
    expect_consumed(r, "global");
  }
  {
    bytes::Reader r(sections[2].data);
    if (r.u8() != 0) {
      ServerCheckpoint::AdaFlCoreState a;
      a.g_hat = get_f32_vec(r, "g_hat");
      require_finite(a.g_hat, "g_hat");
      ADAFL_CHECK_MSG(a.g_hat.size() == ck.global.size(),
                      "checkpoint: g_hat/global dimension mismatch");
      a.selected_updates = static_cast<std::int64_t>(r.u64());
      a.skipped_clients = static_cast<std::int64_t>(r.u64());
      a.min_ratio_used = r.f64();
      a.max_ratio_used = r.f64();
      a.mean_selected_per_round = r.f64();
      a.selected_sum = static_cast<std::int64_t>(r.u64());
      a.rounds_planned = static_cast<std::int32_t>(r.u32());
      ADAFL_CHECK_MSG(a.selected_updates >= 0 && a.skipped_clients >= 0 &&
                          a.selected_sum >= 0 && a.rounds_planned >= 0,
                      "checkpoint: negative adafl counters");
      ck.adafl = std::move(a);
    }
    expect_consumed(r, "adafl");
  }
  {
    bytes::Reader r(sections[3].data);
    if (r.u8() != 0) {
      ServerCheckpoint::AdamState a;
      a.m = get_f32_vec(r, "adam m");
      a.v = get_f32_vec(r, "adam v");
      require_finite(a.m, "adam m");
      require_finite(a.v, "adam v");
      a.t = static_cast<std::int64_t>(r.u64());
      ADAFL_CHECK_MSG(a.m.size() == a.v.size(),
                      "checkpoint: adam m/v length mismatch");
      ADAFL_CHECK_MSG(a.t >= 0, "checkpoint: negative adam step count");
      ck.adam = std::move(a);
    }
    expect_consumed(r, "adam");
  }
  {
    bytes::Reader r(sections[4].data);
    if (r.u8() != 0) {
      auto c = get_f32_vec(r, "c_global");
      require_finite(c, "c_global");
      ck.c_global = std::move(c);
    }
    expect_consumed(r, "scaffold");
  }
  {
    bytes::Reader r(sections[5].data);
    if (r.u8() != 0) ck.server_rng = get_rng(r);
    const std::uint32_t n = r.u32();
    ck.link_rngs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) ck.link_rngs.push_back(get_rng(r));
    const std::uint32_t m = r.u32();
    ADAFL_CHECK_MSG(m <= r.remaining() / 4,
                    "checkpoint: schedule length exceeds section");
    ck.schedule.resize(m);
    for (auto& idx : ck.schedule) idx = static_cast<std::int32_t>(r.u32());
    expect_consumed(r, "rng");
  }
  {
    bytes::Reader r(sections[6].data);
    const std::uint32_t n = r.u32();
    ck.clients.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ServerCheckpoint::ClientState c;
      c.loader_rng = get_rng(r);
      c.loader_cursor = r.u64();
      const std::uint64_t m = r.u64();
      ADAFL_CHECK_MSG(m <= r.remaining() / 4,
                      "checkpoint: client index list exceeds section");
      ADAFL_CHECK_MSG(c.loader_cursor <= m,
                      "checkpoint: client cursor out of range");
      c.loader_indices.resize(static_cast<std::size_t>(m));
      for (auto& idx : c.loader_indices)
        idx = static_cast<std::int32_t>(r.u32());
      c.dgc_u = get_f32_vec(r, "dgc u");
      c.dgc_v = get_f32_vec(r, "dgc v");
      c.c_local = get_f32_vec(r, "c_local");
      require_finite(c.dgc_u, "dgc u");
      require_finite(c.dgc_v, "dgc v");
      require_finite(c.c_local, "c_local");
      ck.clients.push_back(std::move(c));
    }
    expect_consumed(r, "clients");
  }
  return ck;
}

void save_server_checkpoint(const std::string& path,
                            const ServerCheckpoint& ck) {
  write_checkpoint_file(path, encode_server_checkpoint(ck));
}

ServerCheckpoint load_server_checkpoint(const std::string& path) {
  const auto sections = read_checkpoint_file(path);
  try {
    return decode_server_checkpoint(sections);
  } catch (const CheckError& e) {
    fail(path, e.what());
  }
}

ServerCheckpoint resume_checkpoint(
    const std::string& path, const ServerCheckpoint& want,
    const std::function<void(ServerCheckpoint&)>& restore) {
  ServerCheckpoint ck = load_server_checkpoint(path);
  const auto reject = [&path](const std::string& why) {
    fail(path, why + "; delete the checkpoint or rerun without --resume");
  };
  const auto counts = [](std::size_t have, std::size_t wanted) {
    return " (checkpoint has " + std::to_string(have) + ", this run has " +
           std::to_string(wanted) + ")";
  };
  if (ck.producer != want.producer)
    reject("written by '" + ck.producer + "', expected '" + want.producer +
           "'");
  if (ck.seed != want.seed) reject("seed mismatch");
  if (ck.config_crc != want.config_crc)
    reject("run configuration changed since the checkpoint was written");
  if (ck.total_rounds != want.total_rounds)
    reject("round count mismatch" + counts(ck.total_rounds, want.total_rounds));
  if (ck.next_round > ck.total_rounds)
    reject("run already complete (all " + std::to_string(ck.total_rounds) +
           " rounds done); nothing to resume");
  if (ck.global.size() != want.global.size())
    reject("model dimension mismatch" +
           counts(ck.global.size(), want.global.size()));
  if (ck.adafl.has_value() != want.adafl.has_value())
    reject("AdaFL server state mismatch");
  if (ck.adam.has_value() != want.adam.has_value())
    reject("server optimizer state mismatch");
  if (ck.c_global.has_value() != want.c_global.has_value())
    reject("SCAFFOLD state mismatch");
  if (ck.c_global && ck.c_global->size() != want.c_global->size())
    reject("c_global dimension mismatch");
  if (ck.server_rng.has_value() != want.server_rng.has_value())
    reject("server RNG state mismatch");
  if (ck.clients.size() != want.clients.size())
    reject("client count mismatch" +
           counts(ck.clients.size(), want.clients.size()));
  if (ck.link_rngs.size() != want.link_rngs.size())
    reject("link count mismatch" +
           counts(ck.link_rngs.size(), want.link_rngs.size()));
  if (ck.schedule.size() != want.schedule.size())
    reject("schedule length mismatch");
  std::vector<bool> seen(ck.schedule.size(), false);
  for (const std::int32_t id : ck.schedule) {
    const auto i = static_cast<std::size_t>(id);
    if (id < 0 || i >= seen.size() || seen[i])
      reject("schedule is not a permutation of the clients");
    seen[i] = true;
  }
  try {
    restore(ck);
  } catch (const CheckError& e) {
    reject(e.what());
  }
  return ck;
}

}  // namespace adafl::core
