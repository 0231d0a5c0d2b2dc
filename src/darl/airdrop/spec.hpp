// darl/airdrop/spec.hpp
//
// Text codec for AirdropConfig, used as the opaque `env_spec` string the
// distributed runtime ships inside a Job message: the learner encodes the
// trial's environment configuration here, and the remote actor process
// rebuilds an identical environment factory from it (darl/net itself
// stays case-study-agnostic — it never parses the spec). Doubles are
// written at round-trip precision, so a decoded config is bitwise the
// encoded one. CanopyParams are simulation constants shared by every
// study configuration and stay at their defaults on the wire.

#pragma once

#include <string>

#include "darl/airdrop/airdrop_env.hpp"
#include "darl/env/env.hpp"

namespace darl::airdrop {

/// Spec-string prefix identifying the airdrop case study ("airdrop-v1").
extern const char* const kAirdropSpecMagic;

/// Serialize every study-configurable AirdropConfig field.
std::string encode_airdrop_spec(const AirdropConfig& config);

/// Inverse of encode_airdrop_spec; throws darl::InvalidArgument on a
/// malformed or foreign spec string. Strict: flags must be 0 or 1, counts
/// whole unsigned numbers, reals finite, nothing may follow the last
/// field, and the decoded config must pass validate_airdrop_config — a
/// Job an actor cannot run is refused at decode time.
AirdropConfig decode_airdrop_spec(const std::string& spec);

/// True when `spec` carries the airdrop magic (resolver dispatch).
bool is_airdrop_spec(const std::string& spec);

/// Convenience: decode + wrap in a factory (the darl_worker resolver).
env::EnvFactory airdrop_factory_from_spec(const std::string& spec);

}  // namespace darl::airdrop
