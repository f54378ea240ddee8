#include "script/interp.hpp"

#include <cmath>

namespace rabit::script {

SupervisorSink::SupervisorSink(trace::Supervisor* supervisor) : supervisor_(supervisor) {
  if (supervisor_ == nullptr) throw std::invalid_argument("SupervisorSink: null supervisor");
}

json::Value SupervisorSink::on_command(const dev::Command& cmd) {
  trace::SupervisedStep step = supervisor_->step(cmd);
  if (step.alert) throw ExperimentHalted(step.alert->describe());
  if (step.halted) throw ExperimentHalted("supervisor halted the experiment");
  if (step.exec && step.exec->measurement) return json::Value(*step.exec->measurement);
  return json::Value();
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

struct Interpreter::Scope {
  std::map<std::string, Value> locals;
  Scope* parent = nullptr;
  Interpreter* owner = nullptr;

  Value* find(const std::string& name) {
    if (auto it = locals.find(name); it != locals.end()) return &it->second;
    if (parent != nullptr) return parent->find(name);
    if (auto it = owner->globals_.find(name); it != owner->globals_.end()) return &it->second;
    return nullptr;
  }
};

namespace {

bool truthy(const Value& v, int line) {
  if (v.is_device()) return true;
  const json::Value& d = v.data;
  if (d.is_bool()) return d.as_bool();
  if (d.is_number()) return d.as_double() != 0.0;
  if (d.is_null()) return false;
  if (d.is_string()) return !d.as_string().empty();
  if (d.is_array()) return !d.as_array().empty();
  throw ScriptError("value cannot be used as a condition", line);
}

double as_number(const Value& v, int line) {
  if (!v.is_device() && v.data.is_number()) return v.data.as_double();
  throw ScriptError("expected a number", line);
}

bool values_equal(const Value& a, const Value& b) {
  if (a.is_device() || b.is_device()) return a.device == b.device;
  if (a.data.is_number() && b.data.is_number()) {
    return a.data.as_double() == b.data.as_double();
  }
  return a.data == b.data;
}

}  // namespace

Interpreter::Interpreter(CommandSink* sink) : sink_(sink) {
  if (sink_ == nullptr) throw std::invalid_argument("Interpreter: null sink");
}

void Interpreter::register_device(const std::string& name) {
  globals_[name] = Value::device_ref(name);
}

void Interpreter::register_devices(const dev::DeviceRegistry& registry) {
  for (const dev::Device* d : registry.all()) register_device(d->id());
}

void Interpreter::set_global(const std::string& name, json::Value value) {
  globals_[name] = Value(std::move(value));
}

const json::Value& Interpreter::global(const std::string& name) const {
  auto it = globals_.find(name);
  if (it == globals_.end()) throw std::out_of_range("no global '" + name + "'");
  return it->second.data;
}

void Interpreter::run(std::string_view source) { run(parse(source)); }

void Interpreter::run(const Program& program) {
  Scope top;
  top.owner = this;
  try {
    execute_block(program.statements, top);
  } catch (const ReturnSignal&) {
    // `return` at top level simply ends the script.
  }
}

void Interpreter::execute_block(const Block& block, Scope& scope) {
  for (const StmtPtr& stmt : block) execute(*stmt, scope);
}

void Interpreter::execute(const Stmt& stmt, Scope& scope) {
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, LetStmt>) {
          scope.locals[node.name] = evaluate(*node.value, scope);
        } else if constexpr (std::is_same_v<T, AssignStmt>) {
          Value* slot = scope.find(node.name);
          if (slot == nullptr) {
            throw ScriptError("assignment to undeclared variable '" + node.name + "'",
                              stmt.line);
          }
          *slot = evaluate(*node.value, scope);
        } else if constexpr (std::is_same_v<T, ExprStmt>) {
          evaluate(*node.expr, scope);
        } else if constexpr (std::is_same_v<T, DefStmt>) {
          functions_[node.name] = Function{node.params, node.body};
        } else if constexpr (std::is_same_v<T, IfStmt>) {
          if (truthy(evaluate(*node.condition, scope), stmt.line)) {
            Scope inner{{}, &scope, this};
            execute_block(node.then_branch, inner);
          } else if (!node.else_branch.empty()) {
            Scope inner{{}, &scope, this};
            execute_block(node.else_branch, inner);
          }
        } else if constexpr (std::is_same_v<T, WhileStmt>) {
          std::size_t iterations = 0;
          while (truthy(evaluate(*node.condition, scope), stmt.line)) {
            if (++iterations > 100000) {
              throw ScriptError("while loop exceeded 100000 iterations", stmt.line);
            }
            Scope inner{{}, &scope, this};
            execute_block(node.body, inner);
          }
        } else if constexpr (std::is_same_v<T, ReturnStmt>) {
          ReturnSignal signal;
          if (node.value != nullptr) signal.value = evaluate(*node.value, scope);
          throw signal;
        }
      },
      stmt.node);
}

Value Interpreter::evaluate(const Expr& expr, Scope& scope) {
  return std::visit(
      [&](const auto& node) -> Value {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, NumberLit>) {
          return Value(json::Value(node.value));
        } else if constexpr (std::is_same_v<T, StringLit>) {
          return Value(json::Value(node.value));
        } else if constexpr (std::is_same_v<T, BoolLit>) {
          return Value(json::Value(node.value));
        } else if constexpr (std::is_same_v<T, NullLit>) {
          return Value(json::Value());
        } else if constexpr (std::is_same_v<T, Ident>) {
          Value* v = scope.find(node.name);
          if (v == nullptr) {
            throw ScriptError("unknown variable '" + node.name + "'", expr.line);
          }
          return *v;
        } else if constexpr (std::is_same_v<T, ListLit>) {
          json::Array arr;
          for (const ExprPtr& item : node.items) {
            Value v = evaluate(*item, scope);
            if (v.is_device()) {
              throw ScriptError("device references cannot be stored in lists", expr.line);
            }
            arr.push_back(std::move(v.data));
          }
          return Value(json::Value(std::move(arr)));
        } else if constexpr (std::is_same_v<T, Unary>) {
          Value operand = evaluate(*node.operand, scope);
          if (node.op == "-") return Value(json::Value(-as_number(operand, expr.line)));
          return Value(json::Value(!truthy(operand, expr.line)));
        } else if constexpr (std::is_same_v<T, Binary>) {
          if (node.op == "and") {
            Value lhs = evaluate(*node.lhs, scope);
            if (!truthy(lhs, expr.line)) return Value(json::Value(false));
            return Value(json::Value(truthy(evaluate(*node.rhs, scope), expr.line)));
          }
          if (node.op == "or") {
            Value lhs = evaluate(*node.lhs, scope);
            if (truthy(lhs, expr.line)) return Value(json::Value(true));
            return Value(json::Value(truthy(evaluate(*node.rhs, scope), expr.line)));
          }
          Value lhs = evaluate(*node.lhs, scope);
          Value rhs = evaluate(*node.rhs, scope);
          if (node.op == "==") return Value(json::Value(values_equal(lhs, rhs)));
          if (node.op == "!=") return Value(json::Value(!values_equal(lhs, rhs)));
          if (node.op == "+" && !lhs.is_device() && lhs.data.is_string()) {
            if (!rhs.data.is_string()) {
              throw ScriptError("string concatenation needs two strings", expr.line);
            }
            return Value(json::Value(lhs.data.as_string() + rhs.data.as_string()));
          }
          double a = as_number(lhs, expr.line);
          double b = as_number(rhs, expr.line);
          // A non-finite result would record an argument that serializes as
          // null, so the trace would no longer replay the checked command.
          auto finite = [&](double result) {
            if (!std::isfinite(result)) {
              throw ScriptError("arithmetic overflow in '" + node.op + "'", expr.line);
            }
            return Value(json::Value(result));
          };
          if (node.op == "+") return finite(a + b);
          if (node.op == "-") return finite(a - b);
          if (node.op == "*") return finite(a * b);
          if (node.op == "/") {
            if (b == 0.0) throw ScriptError("division by zero", expr.line);
            return finite(a / b);
          }
          if (node.op == "%") {
            if (b == 0.0) throw ScriptError("modulo by zero", expr.line);
            return Value(json::Value(std::fmod(a, b)));
          }
          if (node.op == "<") return Value(json::Value(a < b));
          if (node.op == "<=") return Value(json::Value(a <= b));
          if (node.op == ">") return Value(json::Value(a > b));
          if (node.op == ">=") return Value(json::Value(a >= b));
          throw ScriptError("unknown operator '" + node.op + "'", expr.line);
        } else if constexpr (std::is_same_v<T, Call>) {
          std::vector<Value> args;
          for (const CallArg& arg : node.args) {
            if (!arg.name.empty()) {
              throw ScriptError("functions take positional arguments only", expr.line);
            }
            args.push_back(evaluate(*arg.value, scope));
          }
          return call_function(node.callee, std::move(args), expr.line);
        } else if constexpr (std::is_same_v<T, MethodCall>) {
          Value base = evaluate(*node.base, scope);
          if (!base.is_device()) {
            throw ScriptError("method call on a non-device value", expr.line);
          }
          return emit_command(base.device, node.method, node.args, scope, expr.line);
        } else if constexpr (std::is_same_v<T, Index>) {
          Value base = evaluate(*node.base, scope);
          Value index = evaluate(*node.index, scope);
          if (base.is_device()) throw ScriptError("cannot index a device", expr.line);
          if (base.data.is_array()) {
            const json::Array& arr = base.data.as_array();
            std::optional<std::size_t> i = list_index(as_number(index, expr.line), arr.size());
            if (!i) throw ScriptError("list index out of range", expr.line);
            return Value(arr[*i]);
          }
          if (base.data.is_object()) {
            if (index.is_device() || !index.data.is_string()) {
              throw ScriptError("object index must be a string", expr.line);
            }
            const json::Value* v = base.data.as_object().find(index.data.as_string());
            if (v == nullptr) {
              throw ScriptError("no key '" + index.data.as_string() + "'", expr.line);
            }
            return Value(*v);
          }
          throw ScriptError("value is not indexable", expr.line);
        }
      },
      expr.node);
}

Value Interpreter::call_function(const std::string& name, std::vector<Value> args, int line) {
  // Builtins.
  if (name == "len") {
    if (args.size() != 1 || args[0].is_device() || !args[0].data.is_array()) {
      throw ScriptError("len() takes one list argument", line);
    }
    return Value(json::Value(static_cast<std::int64_t>(args[0].data.as_array().size())));
  }
  if (name == "abs") {
    if (args.size() != 1) throw ScriptError("abs() takes one number", line);
    return Value(json::Value(std::abs(as_number(args[0], line))));
  }
  if (name == "min" || name == "max") {
    if (args.size() != 2) throw ScriptError(name + "() takes two numbers", line);
    double a = as_number(args[0], line);
    double b = as_number(args[1], line);
    return Value(json::Value(name == "min" ? std::min(a, b) : std::max(a, b)));
  }

  auto it = functions_.find(name);
  if (it == functions_.end()) throw ScriptError("unknown function '" + name + "'", line);
  const Function& fn = it->second;
  if (fn.params.size() != args.size()) {
    throw ScriptError("function '" + name + "' expects " + std::to_string(fn.params.size()) +
                          " arguments, got " + std::to_string(args.size()),
                      line);
  }
  // Runaway recursion is a script error, not a stack overflow.
  constexpr int kMaxCallDepth = 200;
  if (call_depth_ >= kMaxCallDepth) {
    throw ScriptError("call depth exceeded " + std::to_string(kMaxCallDepth) +
                          " (runaway recursion in '" + name + "'?)",
                      line);
  }
  struct Frame {
    int& depth;
    explicit Frame(int& d) : depth(++d) {}
    ~Frame() { --depth; }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;
  } guard(call_depth_);
  Scope frame;
  frame.owner = this;  // functions see globals, not the caller's locals
  for (std::size_t i = 0; i < args.size(); ++i) {
    frame.locals[fn.params[i]] = std::move(args[i]);
  }
  try {
    execute_block(*fn.body, frame);
  } catch (ReturnSignal& signal) {
    return std::move(signal.value);
  }
  return Value();
}

Value Interpreter::emit_command(const std::string& device, const std::string& method,
                                const std::vector<CallArg>& args, Scope& scope, int line) {
  dev::Command cmd;
  cmd.device = device;
  cmd.action = method;
  cmd.source_line = line;
  json::Object arg_object;
  for (const CallArg& arg : args) {
    if (arg.name.empty()) {
      throw ScriptError("device commands take named arguments (e.g. position=[x,y,z])", line);
    }
    Value v = evaluate(*arg.value, scope);
    if (v.is_device()) {
      // Passing a device hands over its id (e.g. target=vial_1).
      arg_object[arg.name] = v.device;
    } else {
      arg_object[arg.name] = std::move(v.data);
    }
  }
  cmd.args = json::Value(std::move(arg_object));
  return Value(sink_->on_command(cmd));
}

}  // namespace rabit::script
