#include "ctl/command_registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace muerp::ctl {

const char* arg_type_name(ArgType type) noexcept {
  switch (type) {
    case ArgType::kString:
      return "string";
    case ArgType::kNumber:
      return "number";
    case ArgType::kInt:
      return "int";
    case ArgType::kBool:
      return "bool";
    case ArgType::kAny:
      return "any";
  }
  return "?";
}

namespace {

bool arg_matches(const support::json::Value& value, ArgType type) {
  using Kind = support::json::Value::Kind;
  switch (type) {
    case ArgType::kString:
      return value.kind == Kind::kString;
    case ArgType::kNumber:
      return value.kind == Kind::kNumber;
    case ArgType::kInt:
      // Within +-2^53 every integer is exact, and handlers may cast to
      // 64-bit integers without overflow.
      return value.kind == Kind::kNumber &&
             value.number_value == std::floor(value.number_value) &&
             std::fabs(value.number_value) <= 9007199254740992.0;
    case ArgType::kBool:
      return value.kind == Kind::kBool;
    case ArgType::kAny:
      return true;
  }
  return false;
}

const char* kind_name(const support::json::Value& value) {
  using Kind = support::json::Value::Kind;
  switch (value.kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return "bool";
    case Kind::kNumber:
      return "number";
    case Kind::kString:
      return "string";
    case Kind::kArray:
      return "array";
    case Kind::kObject:
      return "object";
  }
  return "?";
}

}  // namespace

void CommandRegistry::add(CommandSpec spec) {
  if (spec.name.empty() || !spec.handler) {
    throw std::invalid_argument(
        "CommandRegistry::add: command needs a name and a handler");
  }
  if (find(spec.name) != nullptr) {
    throw std::invalid_argument("CommandRegistry::add: duplicate command '" +
                                spec.name + "'");
  }
  const auto at = std::lower_bound(
      commands_.begin(), commands_.end(), spec,
      [](const CommandSpec& a, const CommandSpec& b) { return a.name < b.name; });
  commands_.insert(at, std::move(spec));
}

const CommandSpec* CommandRegistry::find(std::string_view name) const noexcept {
  const auto at = std::lower_bound(
      commands_.begin(), commands_.end(), name,
      [](const CommandSpec& spec, std::string_view key) {
        return spec.name < key;
      });
  if (at == commands_.end() || at->name != name) return nullptr;
  return &*at;
}

CommandResult CommandRegistry::run(std::string_view cmd,
                                   const support::json::Value& args) const {
  const CommandSpec* spec = find(cmd);
  if (spec == nullptr) {
    std::string known;
    for (const CommandSpec& c : commands_) {
      if (!known.empty()) known += ", ";
      known += c.name;
    }
    return CommandResult::failure(
        kErrUnknownCommand,
        "unknown command '" + std::string(cmd) + "' (known: " + known + ")");
  }
  // Schema validation: required members present, every member known and of
  // the declared type. Handlers can rely on it.
  for (const ArgSpec& arg : spec->args) {
    const support::json::Value* value = args.find(arg.name);
    if (value == nullptr) {
      if (arg.required) {
        return CommandResult::failure(
            kErrBadArg, "missing required argument '" + arg.name + "' (" +
                            arg_type_name(arg.type) + ")");
      }
      continue;
    }
    if (!arg_matches(*value, arg.type)) {
      return CommandResult::failure(
          kErrBadArg, "argument '" + arg.name + "' must be " +
                          arg_type_name(arg.type) + ", got " +
                          (value->is_string()
                               ? support::json::quote(value->string_value)
                               : kind_name(*value)));
    }
  }
  for (const auto& [name, value] : args.members) {
    const bool known = std::any_of(
        spec->args.begin(), spec->args.end(),
        [&name](const ArgSpec& arg) { return arg.name == name; });
    if (!known) {
      return CommandResult::failure(
          kErrBadArg,
          "unknown argument '" + name + "' for command '" + spec->name + "'");
    }
  }
  try {
    return spec->handler(args);
  } catch (const std::exception& e) {
    return CommandResult::failure(
        kErrInternal, "command '" + spec->name + "' threw: " + e.what());
  } catch (...) {
    return CommandResult::failure(kErrInternal,
                                  "command '" + spec->name + "' threw");
  }
}

std::string CommandRegistry::dispatch(std::string_view request_body) const {
  const support::json::ParseResult parsed = support::json::parse(request_body);
  if (!parsed.ok()) {
    return envelope(CommandResult::failure(
        kErrBadRequest, "request body is not JSON: " + parsed.error));
  }
  if (!parsed.value.is_object()) {
    return envelope(CommandResult::failure(
        kErrBadRequest, "request body must be a JSON object"));
  }
  const support::json::Value* cmd = parsed.value.find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    return envelope(CommandResult::failure(
        kErrBadRequest, "request needs a string \"cmd\" member"));
  }
  static const support::json::Value kEmptyArgs = [] {
    support::json::Value v;
    v.kind = support::json::Value::Kind::kObject;
    return v;
  }();
  const support::json::Value* args = parsed.value.find("args");
  if (args != nullptr && !args->is_object()) {
    return envelope(CommandResult::failure(
        kErrBadRequest, "\"args\" must be an object when present"));
  }
  for (const auto& [name, value] : parsed.value.members) {
    (void)value;
    if (name != "cmd" && name != "args") {
      return envelope(CommandResult::failure(
          kErrBadRequest, "unexpected envelope member '" + name + "'"));
    }
  }
  return envelope(run(cmd->string_value, args != nullptr ? *args : kEmptyArgs));
}

std::string CommandRegistry::envelope(const CommandResult& result) {
  std::string out;
  if (result.ok) {
    out = "{\"ok\": true, \"result\": ";
    out += result.result_json.empty() ? "null" : result.result_json;
    out += "}\n";
  } else {
    out = "{\"ok\": false, \"code\": ";
    out += support::json::quote(result.code);
    out += ", \"error\": ";
    out += support::json::quote(result.message);
    out += "}\n";
  }
  return out;
}

std::string CommandRegistry::describe_json() const {
  std::string out = "{\"commands\": [";
  for (std::size_t i = 0; i < commands_.size(); ++i) {
    const CommandSpec& spec = commands_[i];
    if (i != 0) out += ", ";
    out += "{\"name\": " + support::json::quote(spec.name);
    out += ", \"summary\": " + support::json::quote(spec.summary);
    out += ", \"args\": [";
    for (std::size_t a = 0; a < spec.args.size(); ++a) {
      const ArgSpec& arg = spec.args[a];
      if (a != 0) out += ", ";
      out += "{\"name\": " + support::json::quote(arg.name);
      out += ", \"type\": " + support::json::quote(arg_type_name(arg.type));
      out += ", \"required\": ";
      out += arg.required ? "true" : "false";
      out += ", \"help\": " + support::json::quote(arg.help);
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace muerp::ctl
