#include "sim/faults.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/log.hpp"

namespace msvm::sim {

namespace {

/// True when every character of `text` is a plain decimal digit or dot.
/// Used to reject the exotic spellings std::stod happily accepts — nan,
/// inf, hex ("0x1f"), exponents, signs — which would otherwise turn into
/// garbage picosecond values without an error.
bool plain_decimal(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if ((c < '0' || c > '9') && c != '.') return false;
  }
  return true;
}

/// Parses "500ms" / "2.5us" / "100ns" / "1s" into picoseconds. The unit
/// suffix is mandatory so a bare number can never silently mean the
/// wrong scale.
TimePs parse_duration(const std::string& tok, const std::string& text) {
  std::size_t pos = 0;
  double value = 0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw FaultSpecError("fault spec: bad duration in '" + tok + "'");
  }
  if (!plain_decimal(text.substr(0, pos))) {
    throw FaultSpecError("fault spec: bad duration in '" + tok + "'");
  }
  if (value < 0) {
    throw FaultSpecError("fault spec: negative duration in '" + tok + "'");
  }
  const std::string unit = text.substr(pos);
  double scale = 0;
  if (unit == "ns") {
    scale = static_cast<double>(kPsPerNs);
  } else if (unit == "us") {
    scale = static_cast<double>(kPsPerUs);
  } else if (unit == "ms") {
    scale = static_cast<double>(kPsPerMs);
  } else if (unit == "s") {
    scale = static_cast<double>(kPsPerSec);
  } else {
    throw FaultSpecError("fault spec: duration needs a ns/us/ms/s suffix in '" +
                         tok + "'");
  }
  // Guard the double->TimePs cast: an overflowing conversion is UB, and a
  // "duration" beyond the virtual-time range is a typo anyway.
  if (value * scale >= static_cast<double>(kTimeNever)) {
    throw FaultSpecError("fault spec: duration too large in '" + tok + "'");
  }
  return static_cast<TimePs>(value * scale);
}

double parse_probability(const std::string& tok, const std::string& text) {
  std::size_t pos = 0;
  double p = 0;
  try {
    p = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw FaultSpecError("fault spec: bad probability in '" + tok + "'");
  }
  // "nan" passes a naive `p < 0 || p > 1` (both comparisons are false),
  // and "0x1"/"infinity" parse without consuming the whole token only
  // sometimes — require full consumption AND an in-range comparison that
  // NaN fails. Exponent forms ("1e-05") stay legal: to_spec emits them.
  if (pos != text.size() || !(p >= 0 && p <= 1)) {
    throw FaultSpecError("fault spec: probability outside [0,1] in '" + tok +
                         "'");
  }
  return p;
}

u64 parse_u64(const std::string& tok, const std::string& text) {
  try {
    // stoull accepts a leading '-' (wrapping modulo 2^64) and skips
    // leading whitespace; require a plain digit string instead.
    if (text.empty() || text[0] < '0' || text[0] > '9') {
      throw std::invalid_argument(text);
    }
    std::size_t pos = 0;
    const u64 v = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw FaultSpecError("fault spec: bad integer in '" + tok + "'");
  }
}

/// Splits "CORE@TIME" for kill clauses.
KillSpec parse_kill(const std::string& tok, const std::string& text) {
  const std::size_t at = text.find('@');
  if (at == std::string::npos) {
    throw FaultSpecError("fault spec: expected CORE@TIME in '" + tok + "'");
  }
  KillSpec k;
  const u64 core = parse_u64(tok, text.substr(0, at));
  if (core > 100000) {
    throw FaultSpecError("fault spec: implausible core id in '" + tok + "'");
  }
  k.core = static_cast<int>(core);
  k.at_ps = parse_duration(tok, text.substr(at + 1));
  if (k.at_ps <= 0) {
    throw FaultSpecError("fault spec: kill time must be positive in '" + tok +
                         "'");
  }
  return k;
}

/// Parses "0"/"1" for boolean knobs.
bool parse_bool(const std::string& tok, const std::string& text) {
  if (text == "0") return false;
  if (text == "1") return true;
  throw FaultSpecError("fault spec: expected 0 or 1 in '" + tok + "'");
}

std::string fmt_duration(TimePs ps) {
  char buf[32];
  if (ps % kPsPerMs == 0) {
    std::snprintf(buf, sizeof(buf), "%llums",
                  static_cast<unsigned long long>(ps / kPsPerMs));
  } else if (ps % kPsPerUs == 0) {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(ps / kPsPerUs));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ps / kPsPerNs));
  }
  return buf;
}

std::string fmt_prob(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::string token;
  std::istringstream stream(spec);
  // Accept both comma- and whitespace-separated tokens.
  while (std::getline(stream, token, ',')) {
    std::istringstream inner(token);
    std::string tok;
    while (inner >> tok) {
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) {
        throw FaultSpecError("fault spec: expected key=value, got '" + tok +
                             "'");
      }
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "seed") {
        plan.seed = parse_u64(tok, val);
      } else if (key == "ipi_drop") {
        plan.ipi_drop = parse_probability(tok, val);
      } else if (key == "ipi_delay") {
        plan.ipi_delay = parse_probability(tok, val);
      } else if (key == "mail_delay") {
        plan.mail_delay = parse_probability(tok, val);
      } else if (key == "mail_dup") {
        plan.mail_dup = parse_probability(tok, val);
      } else if (key == "stall") {
        plan.stall = parse_probability(tok, val);
      } else if (key == "spurious") {
        plan.spurious = parse_probability(tok, val);
      } else if (key == "flipmail") {
        plan.flipmail = parse_probability(tok, val);
      } else if (key == "flippage") {
        plan.flippage = parse_probability(tok, val);
      } else if (key == "flipmeta") {
        plan.flipmeta = parse_probability(tok, val);
      } else if (key == "integrity") {
        plan.integrity = parse_bool(tok, val);
      } else if (key == "scrub") {
        plan.scrub = parse_bool(tok, val);
      } else if (key == "watchdog") {
        plan.watchdog_ps = parse_duration(tok, val);
      } else if (key == "kill") {
        plan.kills.push_back(parse_kill(tok, val));
      } else if (key == "lease") {
        plan.lease_ps = parse_duration(tok, val);
      } else {
        throw FaultSpecError("fault spec: unknown key '" + key + "' in '" +
                             tok + "'");
      }
    }
  }
  return plan;
}

FaultPlan FaultPlan::from_env() {
  const char* env = std::getenv("MSVM_FAULTS");
  if (env == nullptr || env[0] == '\0') return FaultPlan{};
  return parse(env);
}

std::string FaultPlan::to_spec() const {
  const FaultPlan def;
  std::string out;
  const auto add = [&out](const std::string& tok) {
    if (!out.empty()) out += ",";
    out += tok;
  };
  if (seed != def.seed) add("seed=" + std::to_string(seed));
  if (ipi_drop > 0) add("ipi_drop=" + fmt_prob(ipi_drop));
  if (ipi_delay > 0) add("ipi_delay=" + fmt_prob(ipi_delay));
  if (mail_delay > 0) add("mail_delay=" + fmt_prob(mail_delay));
  if (mail_dup > 0) add("mail_dup=" + fmt_prob(mail_dup));
  if (stall > 0) add("stall=" + fmt_prob(stall));
  if (spurious > 0) add("spurious=" + fmt_prob(spurious));
  if (flipmail > 0) add("flipmail=" + fmt_prob(flipmail));
  if (flippage > 0) add("flippage=" + fmt_prob(flippage));
  if (flipmeta > 0) add("flipmeta=" + fmt_prob(flipmeta));
  if (integrity) add("integrity=1");
  if (scrub) add("scrub=1");
  if (watchdog_ps > 0) add("watchdog=" + fmt_duration(watchdog_ps));
  if (lease_ps > 0) add("lease=" + fmt_duration(lease_ps));
  for (const KillSpec& k : kills) {
    add("kill=" + std::to_string(k.core) + "@" + fmt_duration(k.at_ps));
  }
  return out;
}

bool Watchdog::check(TimePs now, TimePs since, const char* site,
                     int core_id) {
  if (limit_ == 0 || tripped_) return tripped_;
  if (now < since || now - since <= limit_) return false;
  tripped_ = true;
  sched_.request_stop();  // parked waits stop where they stand

  std::ostringstream oss;
  oss << "=== watchdog hang report ===\n"
      << "tripped by core " << core_id << " at site " << site << " after "
      << ps_to_ms(now - since) << " ms blocked (limit "
      << ps_to_ms(limit_) << " ms)\n"
      << "blocked actors:\n"
      << sched_.describe_blocked_actors();
  report_ = oss.str();
  for (const auto& provider : providers_) provider(report_);
  report_ += "=== end hang report ===\n";

  MSVM_LOG_ERROR("watchdog: hang detected by core %d at %s; stopping sim",
                 core_id, site);
  if (bus_ != nullptr) {
    bus_->publish(obs::EventKind::kWatchdogTrip, -1, now,
                  static_cast<obs::u64>(core_id));
  }
  return true;
}

}  // namespace msvm::sim
