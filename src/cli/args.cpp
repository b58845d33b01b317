#include "cli/args.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "tensor/check.h"

namespace adafl::cli {

ArgParser::ArgParser(std::string program) : program_(std::move(program)) {}

ArgParser& ArgParser::option(const std::string& key,
                             const std::string& default_value,
                             const std::string& help) {
  ADAFL_CHECK_MSG(!key.empty() && key.substr(0, 2) != "--",
                  "ArgParser: declare keys without the -- prefix");
  ADAFL_CHECK_MSG(options_.find(key) == options_.end(),
                  "ArgParser: duplicate option " << key);
  order_.push_back(key);
  options_[key] = Option{default_value, help};
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      help_requested_ = true;
      continue;
    }
    if (token.substr(0, 2) != "--") {
      error_ = "unexpected positional argument `" + token + "`";
      return false;
    }
    const auto eq = token.find('=');
    const std::string key =
        token.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    auto it = options_.find(key);
    if (it == options_.end()) {
      error_ = "unknown option --" + key;
      return false;
    }
    it->second.value = eq == std::string::npos ? "1" : token.substr(eq + 1);
  }
  return true;
}

std::string ArgParser::get(const std::string& key) const {
  auto it = options_.find(key);
  ADAFL_CHECK_MSG(it != options_.end(), "ArgParser: undeclared key " << key);
  return it->second.value;
}

int ArgParser::get_int(const std::string& key) const {
  const std::string v = get(key);
  std::size_t pos = 0;
  int out = 0;
  try {
    out = std::stoi(v, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;  // non-numeric / out of range: same error below
  }
  if (pos != v.size())
    throw std::invalid_argument("--" + key + "=" + v + " is not an integer");
  return out;
}

int ArgParser::get_int_at_least(const std::string& key, int min_value) const {
  const int out = get_int(key);
  if (out < min_value)
    throw std::invalid_argument("--" + key + "=" + std::to_string(out) +
                                " must be >= " + std::to_string(min_value));
  return out;
}

std::uint16_t ArgParser::get_port(const std::string& key) const {
  const int out = get_int_at_least(key, 0);
  if (out > 65535)
    throw std::invalid_argument("--" + key + "=" + std::to_string(out) +
                                " is not a port (0..65535)");
  return static_cast<std::uint16_t>(out);
}

double ArgParser::get_double(const std::string& key) const {
  const std::string v = get(key);
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != v.size())
    throw std::invalid_argument("--" + key + "=" + v + " is not a number");
  return out;
}

bool ArgParser::get_bool(const std::string& key) const {
  std::string v = get(key);
  std::transform(v.begin(), v.end(), v.begin(), ::tolower);
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_ << " [--key=value ...]\n\noptions:\n";
  for (const auto& key : order_) {
    const auto& opt = options_.at(key);
    os << "  --" << key;
    if (!opt.value.empty()) os << " (default: " << opt.value << ")";
    os << "\n      " << opt.help << "\n";
  }
  return os.str();
}

std::vector<Endpoint> parse_endpoints(const std::string& list) {
  if (list.empty())
    throw std::invalid_argument("empty endpoint list (expected host:port)");
  std::vector<Endpoint> out;
  for (std::size_t pos = 0;;) {
    const auto comma = list.find(',', pos);
    const std::string item = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const auto colon = item.rfind(':');
    int port = 0;
    std::size_t used = 0;
    if (colon != std::string::npos && colon > 0) {
      try {
        port = std::stoi(item.substr(colon + 1), &used);
      } catch (const std::exception&) {
        used = 0;
      }
    }
    if (used == 0 || colon + 1 + used != item.size() || port < 1 ||
        port > 65535)
      throw std::invalid_argument("bad endpoint '" + item +
                                  "' (expected host:port)");
    out.push_back({item.substr(0, colon), static_cast<std::uint16_t>(port)});
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

}  // namespace adafl::cli
