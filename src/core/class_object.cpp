#include "core/class_object.hpp"

#include <algorithm>
#include <utility>

#include "base/hash.hpp"
#include "core/implementation_registry.hpp"
#include "core/state_sections.hpp"
#include "core/well_known.hpp"
#include "persist/opr.hpp"

namespace legion::core {

// ---- ClassDefinition --------------------------------------------------------

std::string ClassDefinition::instance_impl_spec() const {
  std::vector<std::string> names;
  if (!instance_impl.empty()) names.push_back(instance_impl);
  names.insert(names.end(), inherited_impls.begin(), inherited_impls.end());
  return ImplementationRegistry::JoinSpec(names);
}

void ClassDefinition::Serialize(Writer& w) const {
  w.u64(class_id);
  w.str(name);
  w.bytes(public_key);
  // The has-executable marker travels only in the byte stream (the string is
  // appended after the fixed fields); executable-less definitions keep their
  // historical encoding byte for byte.
  w.u8(instance_executable.empty()
           ? flags
           : static_cast<std::uint8_t>(flags | wire::kClassFlagHasExecutable));
  w.str(instance_impl);
  w.u32(static_cast<std::uint32_t>(inherited_impls.size()));
  for (const auto& impl : inherited_impls) w.str(impl);
  interface.Serialize(w);
  superclass.Serialize(w);
  WriteVector(w, bases);
  clone_parent.Serialize(w);
  WriteVector(w, default_magistrates);
  default_scheduling_agent.Serialize(w);
  w.u32(instance_key_bytes);
  w.i64(binding_ttl_us);
  w.u32(suspect_threshold);
  w.i64(probe_timeout_us);
  if (!instance_executable.empty()) w.str(instance_executable);
}

ClassDefinition ClassDefinition::Deserialize(Reader& r) {
  ClassDefinition d;
  d.class_id = r.u64();
  d.name = r.str();
  d.public_key = r.bytes();
  d.flags = r.u8();
  const bool has_executable = (d.flags & wire::kClassFlagHasExecutable) != 0;
  d.flags = static_cast<std::uint8_t>(d.flags & ~wire::kClassFlagHasExecutable);
  d.instance_impl = r.str();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    d.inherited_impls.push_back(r.str());
  }
  d.interface = InterfaceDescription::Deserialize(r);
  d.superclass = Loid::Deserialize(r);
  d.bases = ReadVector<Loid>(r);
  d.clone_parent = Loid::Deserialize(r);
  d.default_magistrates = ReadVector<Loid>(r);
  d.default_scheduling_agent = Loid::Deserialize(r);
  d.instance_key_bytes = r.u32();
  d.binding_ttl_us = r.i64();
  d.suspect_threshold = r.u32();
  d.probe_timeout_us = r.i64();
  if (has_executable) d.instance_executable = r.str();
  return d;
}

// ---- ClassObjectImpl --------------------------------------------------------

void ClassObjectImpl::SaveState(Writer& w) const {
  def_.Serialize(w);
  table_.Serialize(w);
  w.u64(next_seq_);
  WriteVector(w, clones_);
  w.u64(clone_rr_);
  w.u64(creations_);
}

Status ClassObjectImpl::RestoreState(Reader& r) {
  if (r.exhausted()) return OkStatus();  // fresh shell; definition set later
  def_ = ClassDefinition::Deserialize(r);
  if (!r.ok()) return InvalidArgumentError("corrupt class definition");
  if (def_.class_id == 0) return InvalidArgumentError("class state without id");
  // Derive() serializes only the definition: a stream that ends exactly
  // here is a legitimate fresh class. Anything shorter than the full
  // SaveState layout beyond this point is a truncated OPR/checkpoint and
  // must fail loudly — restoring a partial logical table would silently
  // forget objects the class created.
  if (r.exhausted()) {
    table_ = LogicalTable{};
    next_seq_ = 1;
    clones_.clear();
    clone_rr_ = 0;
    creations_ = 0;
    return OkStatus();
  }
  table_ = LogicalTable::Deserialize(r);
  next_seq_ = r.u64();
  clones_ = ReadVector<Loid>(r);
  clone_rr_ = r.u64();
  creations_ = r.u64();
  if (!r.ok()) {
    return InvalidArgumentError("truncated class state: logical table or "
                                "trailing fields cut mid-stream");
  }
  return OkStatus();
}

InterfaceDescription ClassObjectImpl::interface() const {
  InterfaceDescription out = ClassMandatoryInterface();
  out.set_name(def_.name.empty() ? "LegionClass" : def_.name);
  return out;
}

std::vector<std::uint8_t> ClassObjectImpl::make_key(std::uint64_t salt) const {
  std::vector<std::uint8_t> key(def_.instance_key_bytes);
  std::uint64_t h = Mix64(def_.class_id ^ Mix64(salt));
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (i % 8 == 0 && i > 0) h = Mix64(h);
    key[i] = static_cast<std::uint8_t>(h >> (8 * (i % 8)));
  }
  return key;
}

Loid ClassObjectImpl::next_instance_loid() {
  const std::uint64_t seq = next_seq_++;
  return Loid{def_.class_id, seq, make_key(seq)};
}

void ClassObjectImpl::register_component(const Loid& loid,
                                         const Binding& binding,
                                         std::vector<Loid> magistrates) {
  TableRow row;
  row.loid = loid;
  row.kind = RowKind::kRegistered;
  row.address = binding.address;
  row.current_magistrates = std::move(magistrates);
  row.scheduling_agent = def_.default_scheduling_agent;
  table_.upsert(std::move(row));
}

Result<Loid> ClassObjectImpl::choose_magistrate(
    ObjectContext& ctx, const std::vector<Loid>& candidates) {
  const std::vector<Loid>& pool =
      candidates.empty() ? def_.default_magistrates : candidates;
  if (pool.empty()) {
    return FailedPreconditionError("class " + def_.name +
                                   " has no candidate magistrates");
  }
  return pool[ctx.shell.rng().below(pool.size())];
}

Result<wire::CreateReply> ClassObjectImpl::Create(
    ObjectContext& ctx, const wire::CreateRequest& req) {
  // Section 2.1.2: an Abstract class has an empty Create().
  if (def_.is_abstract()) {
    return FailedPreconditionError("class " + def_.name +
                                   " is Abstract: no direct instances");
  }
  if (def_.instance_impl_spec().empty()) {
    return FailedPreconditionError("class " + def_.name +
                                   " has no instance implementation");
  }
  // Section 5.2.2: once cloned, "new instantiation ... requests are passed
  // to the cloned object, making it responsible for the new objects."
  if (!clones_.empty()) {
    const Loid clone = clones_[clone_rr_++ % clones_.size()];
    LEGION_ASSIGN_OR_RETURN(
        Buffer raw, ctx.ref(clone).call(methods::kCreate, req.to_buffer()));
    return wire::CreateReply::from_buffer(raw);
  }

  ++creations_;
  const Loid loid = next_instance_loid();
  LEGION_ASSIGN_OR_RETURN(Loid magistrate,
                          choose_magistrate(ctx, req.candidate_magistrates));

  // The Section 3.7 scheduling hook: with no explicit suggestion, ask the
  // class's default Scheduling Agent where to run the new object. A failed
  // or absent agent falls back to the magistrate's own placement.
  Loid suggested_host = req.suggested_host;
  if (!suggested_host.valid() && def_.default_scheduling_agent.valid()) {
    wire::LoidRequest ask{magistrate};
    auto raw = ctx.ref(def_.default_scheduling_agent)
                   .call(methods::kSuggestHost, ask.to_buffer());
    if (raw.ok()) {
      if (auto reply = wire::LoidReply::from_buffer(*raw); reply.ok()) {
        suggested_host = reply->loid;
      }
    }
  }

  persist::Opr opr;
  opr.loid = loid;
  opr.implementation = def_.instance_impl_spec();
  opr.executable = def_.instance_executable;
  opr.state = WrapPrimaryState(req.init_state);

  wire::StoreNewRequest store{opr.to_bytes(), suggested_host};
  LEGION_ASSIGN_OR_RETURN(
      Buffer raw, ctx.ref(magistrate).call(methods::kStoreNew, store.to_buffer()));
  LEGION_ASSIGN_OR_RETURN(wire::PlacementReply reply,
                          wire::PlacementReply::from_buffer(raw));

  TableRow row;
  row.loid = loid;
  row.kind = RowKind::kInstance;
  row.address = reply.binding.address;
  row.current_magistrates = {magistrate};
  row.scheduling_agent = def_.default_scheduling_agent;
  row.placed_host = reply.host;
  row.checkpoint_disk = reply.checkpoint_disk;
  row.checkpoint_path = reply.checkpoint_path;
  if (!req.candidate_magistrates.empty()) {
    row.candidates.mode = CandidateMagistrates::Mode::kExplicit;
    row.candidates.magistrates = req.candidate_magistrates;
  }
  table_.upsert(std::move(row));
  return wire::CreateReply{loid, reply.binding};
}

Result<wire::CreateReply> ClassObjectImpl::CreateReplicated(
    ObjectContext& ctx, const wire::CreateReplicatedRequest& req) {
  if (def_.is_abstract()) {
    return FailedPreconditionError("class " + def_.name +
                                   " is Abstract: no direct instances");
  }
  ++creations_;
  const Loid loid = next_instance_loid();
  LEGION_ASSIGN_OR_RETURN(Loid magistrate,
                          choose_magistrate(ctx, req.candidate_magistrates));

  persist::Opr opr;
  opr.loid = loid;
  opr.implementation = def_.instance_impl_spec();
  opr.executable = def_.instance_executable;
  opr.state = WrapPrimaryState(req.init_state);

  wire::StoreNewReplicatedRequest store;
  store.opr_bytes = opr.to_bytes();
  store.replicas = req.replicas;
  store.semantic = req.semantic;
  store.k = req.k;
  LEGION_ASSIGN_OR_RETURN(
      Buffer raw,
      ctx.ref(magistrate).call(methods::kStoreNewReplicated, store.to_buffer()));
  LEGION_ASSIGN_OR_RETURN(wire::BindingReply reply,
                          wire::BindingReply::from_buffer(raw));

  TableRow row;
  row.loid = loid;
  row.kind = RowKind::kInstance;
  row.address = reply.binding.address;
  row.current_magistrates = {magistrate};
  row.scheduling_agent = def_.default_scheduling_agent;
  table_.upsert(std::move(row));
  return wire::CreateReply{loid, reply.binding};
}

Result<wire::CreateReply> ClassObjectImpl::Derive(
    ObjectContext& ctx, const wire::DeriveRequest& req) {
  // Section 2.1.2: a Private class has an empty Derive().
  if (def_.is_private()) {
    return FailedPreconditionError("class " + def_.name +
                                   " is Private: no subclasses");
  }
  if (req.name.empty()) return InvalidArgumentError("subclass needs a name");

  // Obtain a fresh Class Identifier from LegionClass, which records the
  // responsibility pair <us, new class> (Section 4.1.3).
  wire::AssignClassIdRequest assign{ctx.shell.self()};
  LEGION_ASSIGN_OR_RETURN(
      Buffer raw_id,
      ctx.ref(ctx.shell.handles().legion_class.loid)
          .call(methods::kAssignClassId, assign.to_buffer()));
  LEGION_ASSIGN_OR_RETURN(wire::AssignClassIdReply assigned,
                          wire::AssignClassIdReply::from_buffer(raw_id));

  ClassDefinition d;
  d.class_id = assigned.class_id;
  d.name = req.name;
  d.public_key = make_key(assigned.class_id ^ 0xC1A55ULL);
  d.flags = static_cast<std::uint8_t>(req.flags & ~wire::kClassFlagClone);
  // "D ... inherits ... some or all of the member functions and data
  // structures particular to C": with its own implementation, the subclass
  // keeps C's implementations as bases; otherwise it reuses them wholesale.
  if (req.instance_impl.empty()) {
    d.instance_impl = def_.instance_impl;
    d.inherited_impls = def_.inherited_impls;
  } else {
    d.instance_impl = req.instance_impl;
    if (!def_.instance_impl.empty()) {
      d.inherited_impls.push_back(def_.instance_impl);
    }
    d.inherited_impls.insert(d.inherited_impls.end(),
                             def_.inherited_impls.begin(),
                             def_.inherited_impls.end());
  }
  // As with instance_impl: an explicit worker binary overrides, an empty one
  // inherits the superclass's (usually none).
  d.instance_executable = req.instance_executable.empty()
                              ? def_.instance_executable
                              : req.instance_executable;
  d.interface = req.extra_interface;   // subclass additions override,
  d.interface.merge(def_.interface);   // inherited methods follow
  d.interface.set_name(req.name);
  d.superclass = ctx.shell.self();
  d.default_magistrates = req.candidate_magistrates.empty()
                              ? def_.default_magistrates
                              : req.candidate_magistrates;
  d.default_scheduling_agent = def_.default_scheduling_agent;
  d.instance_key_bytes = def_.instance_key_bytes;
  d.binding_ttl_us = def_.binding_ttl_us;
  d.suspect_threshold = def_.suspect_threshold;
  d.probe_timeout_us = def_.probe_timeout_us;

  const Loid new_loid = d.loid();
  Buffer def_bytes;
  Writer w(def_bytes);
  d.Serialize(w);

  persist::Opr opr;
  opr.loid = new_loid;
  opr.implementation = std::string(kClassObjectImpl);
  opr.state = WrapPrimaryState(std::move(def_bytes));

  LEGION_ASSIGN_OR_RETURN(Loid magistrate,
                          choose_magistrate(ctx, req.candidate_magistrates));
  wire::StoreNewRequest store{opr.to_bytes(), Loid{}};
  LEGION_ASSIGN_OR_RETURN(
      Buffer raw,
      ctx.ref(magistrate).call(methods::kStoreNew, store.to_buffer()));
  LEGION_ASSIGN_OR_RETURN(wire::PlacementReply reply,
                          wire::PlacementReply::from_buffer(raw));

  TableRow row;
  row.loid = new_loid;
  row.kind = RowKind::kSubclass;
  row.address = reply.binding.address;
  row.current_magistrates = {magistrate};
  row.scheduling_agent = def_.default_scheduling_agent;
  row.placed_host = reply.host;
  row.checkpoint_disk = reply.checkpoint_disk;
  row.checkpoint_path = reply.checkpoint_path;
  table_.upsert(std::move(row));
  return wire::CreateReply{new_loid, reply.binding};
}

Status ClassObjectImpl::InheritFrom(ObjectContext& ctx, const Loid& base) {
  // Section 2.1.2: a Fixed class has an empty InheritFrom().
  if (def_.is_fixed()) {
    return FailedPreconditionError("class " + def_.name +
                                   " is Fixed: cannot inherit");
  }
  if (!base.names_class_object()) {
    return InvalidArgumentError("InheritFrom target is not a class object");
  }
  LEGION_ASSIGN_OR_RETURN(Buffer raw,
                          ctx.ref(base).call("DescribeClass", Buffer{}));
  LEGION_ASSIGN_OR_RETURN(wire::DescribeClassReply desc,
                          wire::DescribeClassReply::from_buffer(raw));

  // "This causes B's member functions to be added to C's interface" and
  // alters "the composition of future instances" (Section 2.1.1).
  def_.interface.merge(desc.interface);
  for (const std::string& impl :
       ImplementationRegistry::SplitSpec(desc.impl_spec)) {
    if (impl == def_.instance_impl) continue;
    if (std::find(def_.inherited_impls.begin(), def_.inherited_impls.end(),
                  impl) == def_.inherited_impls.end()) {
      def_.inherited_impls.push_back(impl);
    }
  }
  if (std::find(def_.bases.begin(), def_.bases.end(), base) ==
      def_.bases.end()) {
    def_.bases.push_back(base);
  }
  return OkStatus();
}

Status ClassObjectImpl::Delete(ObjectContext& ctx, const Loid& target) {
  TableRow* row = table_.find(target);
  if (row == nullptr) {
    return NotFoundError("not an instance or subclass of " + def_.name);
  }
  // "Both Active and Inert copies of the object are removed" (Section 3.8).
  // A copy: the nested calls are served re-entrantly and may erase the row.
  const std::vector<Loid> magistrates = row->current_magistrates;
  Status last = OkStatus();
  for (const Loid& magistrate : magistrates) {
    wire::LoidRequest req{target};
    auto raw = ctx.ref(magistrate).call(methods::kDelete, req.to_buffer());
    if (!raw.ok() && raw.status().code() != StatusCode::kNotFound) {
      last = raw.status();
    }
  }
  table_.erase(target);
  return last;
}

Result<Binding> ClassObjectImpl::GetBinding(ObjectContext& ctx,
                                            const wire::GetBindingRequest& req) {
  TableRow* row = table_.find(req.loid);
  if (row == nullptr) {
    return NotFoundError("no binding exists for " + req.loid.to_string());
  }
  if (req.mode == wire::GetBindingMode::kRefresh && row->address.valid() &&
      row->address == req.stale.address &&
      !row->current_magistrates.empty()) {
    // The caller claims our cached Object Address is dead: NIL it out and
    // fall through to the magistrates (Section 3.6's GetBinding(binding)).
    // Registered bootstrap components (empty magistrate list) keep their
    // address: they have no OPR to reactivate from, and a drop-induced
    // timeout must not un-register a live magistrate or host object.
    row->address = ObjectAddress{};
  }
  if (row->address.valid()) {
    return Binding{row->loid, row->address,
                   def_.binding_ttl_us == kSimTimeNever
                       ? kSimTimeNever
                       : ctx.shell.now() + def_.binding_ttl_us};
  }
  // Object Address is NIL: consult the Current Magistrate List. "Thus,
  // referring to the LOID of an Inert object can cause the object to be
  // activated" (Section 4.1.2).
  // The Activate calls are served re-entrantly: the row may be erased, and
  // its slot recycled for another LOID, before a reply arrives. Work from
  // copies and find() the row again before writing it.
  const wire::ActivateRequest activate{row->loid, Loid{}};
  const std::vector<Loid> magistrates = row->current_magistrates;
  Status last = UnavailableError("object has no magistrate");
  for (const Loid& magistrate : magistrates) {
    auto raw = ctx.ref(magistrate).call(methods::kActivate, activate.to_buffer());
    if (!raw.ok()) {
      last = raw.status();
      continue;
    }
    auto reply = wire::PlacementReply::from_buffer(*raw);
    if (!reply.ok()) {
      last = reply.status();
      continue;
    }
    if (TableRow* live = table_.find(activate.loid)) {
      live->address = reply->binding.address;
      live->placed_host = reply->host;
      live->checkpoint_disk = reply->checkpoint_disk;
      live->checkpoint_path = reply->checkpoint_path;
    }
    return reply->binding;
  }
  return last;
}

Result<wire::CreateReply> ClassObjectImpl::Clone(
    ObjectContext& ctx, const wire::CreateRequest& req) {
  // Section 5.2.2: "The cloned class is derived from the heavily used class
  // without changing the interface in any way."
  if (def_.is_clone()) {
    return FailedPreconditionError("clones cannot be cloned");
  }
  wire::AssignClassIdRequest assign{ctx.shell.self()};
  LEGION_ASSIGN_OR_RETURN(
      Buffer raw_id,
      ctx.ref(ctx.shell.handles().legion_class.loid)
          .call(methods::kAssignClassId, assign.to_buffer()));
  LEGION_ASSIGN_OR_RETURN(wire::AssignClassIdReply assigned,
                          wire::AssignClassIdReply::from_buffer(raw_id));

  ClassDefinition d = def_;
  d.class_id = assigned.class_id;
  d.name = def_.name + "~clone" + std::to_string(clones_.size() + 1);
  d.public_key = make_key(assigned.class_id ^ 0xC70EULL);
  d.flags = static_cast<std::uint8_t>(def_.flags | wire::kClassFlagClone);
  d.clone_parent = ctx.shell.self();
  if (!req.candidate_magistrates.empty()) {
    d.default_magistrates = req.candidate_magistrates;
  }

  const Loid clone_loid = d.loid();
  Buffer def_bytes;
  Writer w(def_bytes);
  d.Serialize(w);

  persist::Opr opr;
  opr.loid = clone_loid;
  opr.implementation = std::string(kClassObjectImpl);
  opr.state = WrapPrimaryState(std::move(def_bytes));

  LEGION_ASSIGN_OR_RETURN(Loid magistrate,
                          choose_magistrate(ctx, req.candidate_magistrates));
  wire::StoreNewRequest store{opr.to_bytes(), req.suggested_host};
  LEGION_ASSIGN_OR_RETURN(
      Buffer raw,
      ctx.ref(magistrate).call(methods::kStoreNew, store.to_buffer()));
  LEGION_ASSIGN_OR_RETURN(wire::PlacementReply reply,
                          wire::PlacementReply::from_buffer(raw));

  TableRow row;
  row.loid = clone_loid;
  row.kind = RowKind::kSubclass;
  row.address = reply.binding.address;
  row.current_magistrates = {magistrate};
  row.placed_host = reply.host;
  row.checkpoint_disk = reply.checkpoint_disk;
  row.checkpoint_path = reply.checkpoint_path;
  table_.upsert(std::move(row));
  clones_.push_back(clone_loid);
  return wire::CreateReply{clone_loid, reply.binding};
}

Status ClassObjectImpl::MoveInstance(ObjectContext& ctx, const Loid& target,
                                     const Loid& dest_magistrate) {
  TableRow* row = table_.find(target);
  if (row == nullptr) {
    return NotFoundError("not an instance of " + def_.name);
  }
  if (!row->candidates.permits(dest_magistrate)) {
    return FailedPreconditionError(
        "destination not on the candidate magistrate list");
  }
  if (row->current_magistrates.empty()) {
    return FailedPreconditionError("object has no current magistrate");
  }
  const Loid src = row->current_magistrates.front();
  wire::TransferRequest req{target, dest_magistrate};
  LEGION_ASSIGN_OR_RETURN(Buffer raw,
                          ctx.ref(src).call(methods::kMove, req.to_buffer()));
  (void)raw;
  // Found again: the Move call is served re-entrantly (see GetBinding).
  row = table_.find(target);
  if (row == nullptr) return OkStatus();  // deleted meanwhile
  row->current_magistrates = {dest_magistrate};
  row->address = ObjectAddress{};  // inert at the destination
  row->clear_placement();          // next activation records a new host
  return OkStatus();
}

// ---- Failure detection & automatic reactivation ----------------------------

bool ClassObjectImpl::probe_host(ObjectContext& ctx, const Loid& host) {
  // One resolve plus one Ping with a short deadline — deliberately not the
  // resolver's retrying call(): the sweep wants cheap probes whose failures
  // are evidence, not something to paper over.
  auto binding = ctx.shell.resolver().resolve(host, def_.probe_timeout_us);
  if (!binding.ok()) return false;
  return ctx.shell.resolver()
      .call_binding(*binding, methods::kPing, Buffer{}, ctx.outgoing_env(),
                    def_.probe_timeout_us)
      .ok();
}

void ClassObjectImpl::release_fences(ObjectContext& ctx, const Loid& host,
                                     std::uint32_t& released) {
  for (std::size_t i = 0; i < fences_.size();) {
    if (fences_[i].host != host) {
      ++i;
      continue;
    }
    // The revived host may still run the pre-failure process; its state is
    // obsolete (the object was restarted from the checkpoint), so discard.
    wire::StopObjectRequest stop{fences_[i].object, /*discard_state=*/true};
    (void)ctx.ref(host).call(methods::kStopObject, stop.to_buffer());
    ++released;
    fences_[i] = fences_.back();
    fences_.pop_back();
  }
}

Status ClassObjectImpl::ReactivateInstance(ObjectContext& ctx,
                                           const TableRow& found,
                                           const Loid& dead_host) {
  if (found.current_magistrates.empty()) {
    return FailedPreconditionError("object has no current magistrate");
  }
  // The calls below are served re-entrantly (see GetBinding): copy the row
  // and find() it again before writing it.
  const TableRow row = found;
  const Binding stale{row.loid, row.address, kSimTimeNever};

  // Ask the Scheduling Agent as on creation, but drop a suggestion that
  // names the dead host — the agent's view may predate the failure.
  Loid suggested;
  if (row.scheduling_agent.valid()) {
    wire::LoidRequest ask{row.current_magistrates.front()};
    auto raw = ctx.ref(row.scheduling_agent)
                   .call(methods::kSuggestHost, ask.to_buffer());
    if (raw.ok()) {
      if (auto reply = wire::LoidReply::from_buffer(*raw);
          reply.ok() && reply->loid != dead_host) {
        suggested = reply->loid;
      }
    }
  }

  wire::ReactivateRequest req{row.loid, suggested, dead_host};
  Status last = UnavailableError("object has no magistrate");
  for (const Loid& magistrate : row.current_magistrates) {
    auto raw = ctx.ref(magistrate).call(methods::kReactivate, req.to_buffer());
    if (!raw.ok()) {
      last = raw.status();
      continue;
    }
    auto reply = wire::PlacementReply::from_buffer(*raw);
    if (!reply.ok()) {
      last = reply.status();
      continue;
    }
    if (TableRow* live = table_.find(row.loid)) {
      live->address = reply->binding.address;
      live->placed_host = reply->host;
      live->checkpoint_disk = reply->checkpoint_disk;
      live->checkpoint_path = reply->checkpoint_path;
    }

    // Section 4.1.4's fan-out: invalidate the dead binding at the Binding
    // Agent *before* publishing the replacement, so no interleaved lookup
    // can re-cache the old address on top of the new one.
    Resolver& resolver = ctx.shell.resolver();
    const Binding& agent = ctx.shell.handles().default_binding_agent;
    wire::InvalidateBindingRequest invalidate{wire::GetBindingMode::kRefresh,
                                              row.loid, stale};
    (void)resolver.call_binding(agent, methods::kInvalidateBinding,
                                invalidate.to_buffer(), ctx.outgoing_env(),
                                rt::Messenger::kDefaultTimeoutUs);
    wire::AddBindingRequest add{reply->binding};
    (void)resolver.call_binding(agent, methods::kAddBinding, add.to_buffer(),
                                ctx.outgoing_env(),
                                rt::Messenger::kDefaultTimeoutUs);
    resolver.cache().invalidate_exact(stale);
    resolver.cache().put(reply->binding);

    // If the host was merely partitioned, its copy of the object may still
    // run; reap it when the host answers probes again.
    if (dead_host.valid()) fences_.push_back(Fence{dead_host, row.loid});
    return OkStatus();
  }
  return last;
}

void ClassObjectImpl::CheckHostObjects(ObjectContext& ctx, const Loid& host,
                                       const std::vector<Loid>& instances,
                                       wire::SweepReply& out) {
  // The host answers probes, but with per-process activation a worker can
  // have died (kill -9) without taking the host down. Ask which of our
  // placed instances still run; reactivate the dead ones. The host is NOT
  // condemned — dead_host stays invalid, so no fence is planted and the
  // host keeps its other objects.
  if (instances.empty()) return;
  wire::CheckObjectsRequest check{instances};
  auto raw = ctx.ref(host).call(methods::kCheckObjects, check.to_buffer());
  if (!raw.ok()) return;  // pre-process hosts may not export the method
  auto reply = wire::CheckObjectsReply::from_buffer(*raw);
  if (!reply.ok()) return;
  for (const Loid& loid : reply->dead) {
    TableRow* row = table_.find(loid);
    if (row == nullptr) continue;
    ++out.instances_dead;
    if (ReactivateInstance(ctx, *row, Loid{}).ok()) {
      ++out.reactivated;
    } else {
      ++out.failed;
    }
  }
}

Result<wire::SweepReply> ClassObjectImpl::SweepInstances(ObjectContext& ctx) {
  wire::SweepReply out;
  // Group placed instances by Host Object: one probe per host however many
  // instances it carries, so sweep (and recovery) cost scales with this
  // class's population, not with system size.
  std::unordered_map<Loid, std::vector<Loid>> by_host;
  for (const Loid& loid : table_.loids(RowKind::kInstance)) {
    const TableRow* row = table_.find(loid);
    if (row == nullptr || !row->placed_host.valid() || !row->address.valid()) {
      continue;
    }
    by_host[row->placed_host].push_back(loid);
  }
  // Hosts that only owe us fences still get probed, so orphaned processes
  // are reaped once the host returns.
  for (const Fence& fence : fences_) by_host.try_emplace(fence.host);

  for (auto& [host, instances] : by_host) {
    ++out.hosts_probed;
    if (probe_host(ctx, host)) {
      missed_probes_.erase(host);
      release_fences(ctx, host, out.fences_released);
      CheckHostObjects(ctx, host, instances, out);
      continue;
    }
    const std::uint32_t misses = ++missed_probes_[host];
    if (misses < def_.suspect_threshold || instances.empty()) continue;
    ++out.hosts_suspect;
    for (const Loid& loid : instances) {
      TableRow* row = table_.find(loid);
      if (row == nullptr) continue;
      if (ReactivateInstance(ctx, *row, host).ok()) {
        ++out.reactivated;
      } else {
        ++out.failed;
      }
    }
    // Verdict delivered; a still-dead host re-accumulates evidence before
    // any instance placed on it later is moved again.
    missed_probes_.erase(host);
  }
  return out;
}

void ClassObjectImpl::RegisterMethods(MethodTable& table) {
  table.add(methods::kCreate, [this](ObjectContext& ctx, Reader& args) -> Result<Buffer> {
    auto req = wire::CreateRequest::Deserialize(args);
    if (!args.ok()) return InvalidArgumentError("bad Create args");
    LEGION_ASSIGN_OR_RETURN(wire::CreateReply reply, Create(ctx, req));
    return reply.to_buffer();
  });
  table.add(methods::kCreateReplicated,
            [this](ObjectContext& ctx, Reader& args) -> Result<Buffer> {
              auto req = wire::CreateReplicatedRequest::Deserialize(args);
              if (!args.ok()) {
                return InvalidArgumentError("bad CreateReplicated args");
              }
              LEGION_ASSIGN_OR_RETURN(wire::CreateReply reply,
                                      CreateReplicated(ctx, req));
              return reply.to_buffer();
            });
  table.add(methods::kDerive, [this](ObjectContext& ctx, Reader& args) -> Result<Buffer> {
    auto req = wire::DeriveRequest::Deserialize(args);
    if (!args.ok()) return InvalidArgumentError("bad Derive args");
    LEGION_ASSIGN_OR_RETURN(wire::CreateReply reply, Derive(ctx, req));
    return reply.to_buffer();
  });
  table.add(methods::kInheritFrom,
            [this](ObjectContext& ctx, Reader& args) -> Result<Buffer> {
              auto req = wire::LoidRequest::Deserialize(args);
              if (!args.ok()) return InvalidArgumentError("bad InheritFrom args");
              LEGION_RETURN_IF_ERROR(InheritFrom(ctx, req.loid));
              return Buffer{};
            });
  table.add(methods::kDelete,
            [this](ObjectContext& ctx, Reader& args) -> Result<Buffer> {
              auto req = wire::LoidRequest::Deserialize(args);
              if (!args.ok()) return InvalidArgumentError("bad Delete args");
              LEGION_RETURN_IF_ERROR(Delete(ctx, req.loid));
              return Buffer{};
            });
  table.add(methods::kGetBinding,
            [this](ObjectContext& ctx, Reader& args) -> Result<Buffer> {
              auto req = wire::GetBindingRequest::Deserialize(args);
              if (!args.ok()) return InvalidArgumentError("bad GetBinding args");
              LEGION_ASSIGN_OR_RETURN(Binding binding, GetBinding(ctx, req));
              return wire::BindingReply{std::move(binding)}.to_buffer();
            });
  table.add(methods::kClone,
            [this](ObjectContext& ctx, Reader& args) -> Result<Buffer> {
              auto req = wire::CreateRequest::Deserialize(args);
              if (!args.ok()) return InvalidArgumentError("bad Clone args");
              LEGION_ASSIGN_OR_RETURN(wire::CreateReply reply, Clone(ctx, req));
              return reply.to_buffer();
            });
  table.add("GetClone", [this](ObjectContext& ctx, Reader&) -> Result<Buffer> {
    // Clients in different domains adopt different clones and create
    // directly against them (Section 5.2.2's load-spreading intent).
    if (clones_.empty()) {
      return wire::LoidReply{ctx.shell.self()}.to_buffer();
    }
    const Loid clone = clones_[clone_rr_++ % clones_.size()];
    return wire::LoidReply{clone}.to_buffer();
  });
  table.add(methods::kMoveInstance,
            [this](ObjectContext& ctx, Reader& args) -> Result<Buffer> {
              auto req = wire::MoveInstanceRequest::Deserialize(args);
              if (!args.ok()) return InvalidArgumentError("bad MoveInstance args");
              LEGION_RETURN_IF_ERROR(
                  MoveInstance(ctx, req.object, req.dest_magistrate));
              return Buffer{};
            });
  table.add(methods::kReportMove,
            [this](ObjectContext&, Reader& args) -> Result<Buffer> {
              auto req = wire::ReportMoveRequest::Deserialize(args);
              if (!args.ok()) return InvalidArgumentError("bad ReportMove args");
              if (TableRow* row = table_.find(req.object)) {
                row->current_magistrates = {req.new_magistrate};
                row->address = ObjectAddress{};
                row->clear_placement();
              }
              return Buffer{};
            });
  table.add("ReportCopy",
            [this](ObjectContext&, Reader& args) -> Result<Buffer> {
              auto req = wire::ReportMoveRequest::Deserialize(args);
              if (!args.ok()) return InvalidArgumentError("bad ReportCopy args");
              // Section 3.7: the Current Magistrate List names every
              // magistrate holding an OPR; a copy adds a second holder.
              if (TableRow* row = table_.find(req.object)) {
                if (std::find(row->current_magistrates.begin(),
                              row->current_magistrates.end(),
                              req.new_magistrate) ==
                    row->current_magistrates.end()) {
                  row->current_magistrates.push_back(req.new_magistrate);
                }
              }
              return Buffer{};
            });
  table.add(methods::kNotifyStarted,
            [this](ObjectContext&, Reader& args) -> Result<Buffer> {
              auto req = wire::NotifyStartedRequest::Deserialize(args);
              if (!args.ok()) return InvalidArgumentError("bad NotifyStarted args");
              register_component(req.loid, req.binding);
              return Buffer{};
            });
  table.add(methods::kListInstances,
            [this](ObjectContext&, Reader&) -> Result<Buffer> {
              return wire::LoidListReply{table_.loids(RowKind::kInstance)}
                  .to_buffer();
            });
  table.add(methods::kSweepInstances,
            [this](ObjectContext& ctx, Reader&) -> Result<Buffer> {
              LEGION_ASSIGN_OR_RETURN(wire::SweepReply reply,
                                      SweepInstances(ctx));
              return reply.to_buffer();
            });
  table.add(methods::kSetRecoveryPolicy,
            [this](ObjectContext&, Reader& args) -> Result<Buffer> {
              auto req = wire::RecoveryPolicyRequest::Deserialize(args);
              if (!args.ok()) {
                return InvalidArgumentError("bad SetRecoveryPolicy args");
              }
              if (req.suspect_threshold == 0 || req.probe_timeout_us <= 0) {
                return InvalidArgumentError(
                    "threshold and probe timeout must be positive");
              }
              def_.suspect_threshold = req.suspect_threshold;
              def_.probe_timeout_us = req.probe_timeout_us;
              return Buffer{};
            });
  table.add(methods::kSetSchedulingAgent,
            [this](ObjectContext&, Reader& args) -> Result<Buffer> {
              auto req = wire::LoidRequest::Deserialize(args);
              if (!args.ok()) {
                return InvalidArgumentError("bad SetSchedulingAgent args");
              }
              // Nil clears the agent (back to magistrate-default placement).
              def_.default_scheduling_agent = req.loid;
              return Buffer{};
            });
  table.add("DescribeClass", [this](ObjectContext&, Reader&) -> Result<Buffer> {
    wire::DescribeClassReply reply;
    reply.class_id = def_.class_id;
    reply.name = def_.name;
    reply.interface = def_.interface;
    reply.impl_spec = def_.instance_impl_spec();
    reply.flags = def_.flags;
    return reply.to_buffer();
  });
}

}  // namespace legion::core
