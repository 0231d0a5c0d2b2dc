#include "darl/airdrop/spec.hpp"

#include <cstdint>
#include <optional>
#include <sstream>

#include "darl/common/error.hpp"
#include "darl/common/parse.hpp"

namespace darl::airdrop {
namespace {

int rk_to_int(ode::RkOrder order) { return static_cast<int>(order); }

ode::RkOrder rk_from_count(std::uint64_t order) {
  switch (order) {
    case 3: return ode::RkOrder::Order3;
    case 5: return ode::RkOrder::Order5;
    case 8: return ode::RkOrder::Order8;
    default:
      throw InvalidArgument("airdrop spec: unsupported Runge-Kutta order " +
                            std::to_string(order));
  }
}

/// The value token of the next `key value` pair; the key must match.
std::string token(std::istream& is, const char* key) {
  std::string got;
  std::string value;
  if (!(is >> got) || got != key || !(is >> value)) {
    throw InvalidArgument(std::string("airdrop spec: malformed field '") +
                          key + "'");
  }
  return value;
}

[[noreturn]] void bad_value(const char* key, const std::string& value,
                            const char* want) {
  throw InvalidArgument(std::string("airdrop spec: field '") + key + "' is '" +
                        value + "', expected " + want);
}

/// A whole unsigned decimal: "-1" or "12abc" never decode to a count.
std::uint64_t count_field(std::istream& is, const char* key) {
  const std::string value = token(is, key);
  const std::optional<std::uint64_t> n = parse_count(value.c_str());
  if (!n) bad_value(key, value, "a whole unsigned number");
  return *n;
}

bool flag_field(std::istream& is, const char* key) {
  const std::uint64_t n = count_field(is, key);
  if (n > 1) bad_value(key, std::to_string(n), "0 or 1");
  return n == 1;
}

double real_field(std::istream& is, const char* key) {
  const std::string value = token(is, key);
  const std::optional<double> x = parse_real(value.c_str());
  if (!x) bad_value(key, value, "a finite number");
  return *x;
}

}  // namespace

const char* const kAirdropSpecMagic = "airdrop-v1";

std::string encode_airdrop_spec(const AirdropConfig& c) {
  std::ostringstream os;
  os.precision(17);
  os << kAirdropSpecMagic << '\n';
  os << "wind_enabled " << (c.wind_enabled ? 1 : 0) << '\n';
  os << "wind_speed_max " << c.wind_speed_max << '\n';
  os << "wind_shear_exponent " << c.wind_shear_exponent << '\n';
  os << "wind_ref_altitude " << c.wind_ref_altitude << '\n';
  os << "gusts_enabled " << (c.gusts_enabled ? 1 : 0) << '\n';
  os << "gust_probability " << c.gust_probability << '\n';
  os << "gust_speed " << c.gust_speed << '\n';
  os << "gust_duration " << c.gust_duration << '\n';
  os << "altitude_min " << c.altitude_min << '\n';
  os << "altitude_max " << c.altitude_max << '\n';
  os << "rk_order " << rk_to_int(c.rk_order) << '\n';
  os << "action_mode "
     << (c.action_mode == ActionMode::Continuous ? "continuous" : "discrete3")
     << '\n';
  os << "control_dt " << c.control_dt << '\n';
  os << "reward_scale " << c.reward_scale << '\n';
  os << "shaping_weight " << c.shaping_weight << '\n';
  os << "drop_offset_fraction " << c.drop_offset_fraction << '\n';
  os << "max_episode_steps " << c.max_episode_steps << '\n';
  os << "precise_touchdown " << (c.precise_touchdown ? 1 : 0) << '\n';
  os << "touchdown_tolerance " << c.touchdown_tolerance << '\n';
  return os.str();
}

AirdropConfig decode_airdrop_spec(const std::string& spec) {
  std::istringstream is(spec);
  std::string magic;
  if (!(is >> magic) || magic != kAirdropSpecMagic) {
    throw InvalidArgument("airdrop spec: bad magic '" + magic + "'");
  }
  AirdropConfig c;
  c.wind_enabled = flag_field(is, "wind_enabled");
  c.wind_speed_max = real_field(is, "wind_speed_max");
  c.wind_shear_exponent = real_field(is, "wind_shear_exponent");
  c.wind_ref_altitude = real_field(is, "wind_ref_altitude");
  c.gusts_enabled = flag_field(is, "gusts_enabled");
  c.gust_probability = real_field(is, "gust_probability");
  c.gust_speed = real_field(is, "gust_speed");
  c.gust_duration = real_field(is, "gust_duration");
  c.altitude_min = real_field(is, "altitude_min");
  c.altitude_max = real_field(is, "altitude_max");
  c.rk_order = rk_from_count(count_field(is, "rk_order"));
  const std::string mode = token(is, "action_mode");
  if (mode == "continuous") {
    c.action_mode = ActionMode::Continuous;
  } else if (mode == "discrete3") {
    c.action_mode = ActionMode::Discrete3;
  } else {
    throw InvalidArgument("airdrop spec: unknown action mode '" + mode + "'");
  }
  c.control_dt = real_field(is, "control_dt");
  c.reward_scale = real_field(is, "reward_scale");
  c.shaping_weight = real_field(is, "shaping_weight");
  c.drop_offset_fraction = real_field(is, "drop_offset_fraction");
  c.max_episode_steps = count_field(is, "max_episode_steps");
  c.precise_touchdown = flag_field(is, "precise_touchdown");
  c.touchdown_tolerance = real_field(is, "touchdown_tolerance");
  std::string extra;
  if (is >> extra) {
    throw InvalidArgument("airdrop spec: unexpected trailing text '" + extra + "'");
  }
  validate_airdrop_config(c);
  return c;
}

bool is_airdrop_spec(const std::string& spec) {
  return spec.rfind(kAirdropSpecMagic, 0) == 0;
}

env::EnvFactory airdrop_factory_from_spec(const std::string& spec) {
  return make_airdrop_factory(decode_airdrop_spec(spec));
}

}  // namespace darl::airdrop
