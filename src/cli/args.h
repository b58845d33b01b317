// Minimal --key=value argument parser for the command-line tools.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace adafl::cli {

/// Parses `--key=value` / `--flag` style arguments. Keys must be declared
/// before parse() so typos are hard errors; every declared key carries a
/// help line for usage().
class ArgParser {
 public:
  explicit ArgParser(std::string program);

  /// Declares an option with a default (shown in usage()).
  ArgParser& option(const std::string& key, const std::string& default_value,
                    const std::string& help);

  /// Parses argv; returns false (and fills error()) on unknown keys or
  /// malformed tokens. `--help` sets help_requested().
  bool parse(int argc, const char* const* argv);

  /// The raw value. An undeclared key is a programming error (CheckError).
  std::string get(const std::string& key) const;
  /// The typed getters throw std::invalid_argument on a malformed value,
  /// which every binary reports as a usage error (exit 2).
  int get_int(const std::string& key) const;
  /// get_int plus a lower bound: values below `min_value` are usage errors
  /// (e.g. --threads rejects negatives; 0 means "auto").
  int get_int_at_least(const std::string& key, int min_value) const;
  /// A TCP/UDP port to listen on: an integer in [0, 65535] (0 = ephemeral).
  std::uint16_t get_port(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;  ///< "1|true|yes" = true

  bool help_requested() const { return help_requested_; }
  const std::string& error() const { return error_; }
  std::string usage() const;

 private:
  struct Option {
    std::string value;
    std::string help;
  };
  std::string program_;
  std::vector<std::string> order_;
  std::map<std::string, Option> options_;
  bool help_requested_ = false;
  std::string error_;
};

/// One `host:port` entry of an endpoint list.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses a comma-separated `host:port[,host:port...]` list (--server,
/// --parent, --standby), keeping its order: primary first, standbys after.
/// Throws std::invalid_argument naming the malformed item; an empty list is
/// malformed.
std::vector<Endpoint> parse_endpoints(const std::string& list);

}  // namespace adafl::cli
