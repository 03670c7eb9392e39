// Class objects, paper Sections 2.1, 3.7 and 5.2.2.
//
// "Each class object exports class-mandatory member functions to create new
//  instances (Create()) and subclasses (Derive()), to delete instances and
//  subclasses (Delete()), and to find instances and subclasses
//  (GetBinding()). A class object is responsible for assigning LOID's to its
//  instances and subclasses upon their creation."
//
// ClassObjectImpl is itself an ObjectImpl: classes are objects in Legion.
// Its whole definition serializes through SaveState/RestoreState, so class
// objects migrate and clone like anything else.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/active_object.hpp"
#include "core/logical_table.hpp"
#include "core/object_impl.hpp"
#include "core/wire.hpp"

namespace legion::core {

// Everything that defines a Legion class; the state behind a class object.
struct ClassDefinition {
  std::uint64_t class_id = 0;
  std::string name;
  std::vector<std::uint8_t> public_key;
  std::uint8_t flags = 0;  // wire::kClassFlag{Abstract,Private,Fixed,Clone}

  // Composition of future instances: the class's own implementation plus
  // implementations accumulated through InheritFrom (Section 2.1.1).
  std::string instance_impl;
  // Worker binary able to host instances as their own OS processes; lands in
  // every instance OPR's executable field. "" = in-process activation.
  std::string instance_executable;
  std::vector<std::string> inherited_impls;
  InterfaceDescription interface;

  Loid superclass;             // kind-of relation (Derive)
  std::vector<Loid> bases;     // inherits-from relation (InheritFrom)
  Loid clone_parent;           // set on clones (Section 5.2.2)

  std::vector<Loid> default_magistrates;
  Loid default_scheduling_agent;
  std::uint32_t instance_key_bytes = 8;  // P/8 for generated instance LOIDs
  // Expiry stamped on bindings answered from the logical table (Section
  // 3.5); kSimTimeNever = bindings only die by proving stale.
  SimTime binding_ttl_us = kSimTimeNever;
  // Recovery policy for SweepInstances: a host is suspect after this many
  // consecutive failed probes, each given this long to answer.
  std::uint32_t suspect_threshold = 2;
  SimTime probe_timeout_us = 200'000;

  [[nodiscard]] Loid loid() const {
    return Loid::ForClass(class_id, public_key);
  }
  [[nodiscard]] bool is_abstract() const {
    return (flags & wire::kClassFlagAbstract) != 0;
  }
  [[nodiscard]] bool is_private() const {
    return (flags & wire::kClassFlagPrivate) != 0;
  }
  [[nodiscard]] bool is_fixed() const {
    return (flags & wire::kClassFlagFixed) != 0;
  }
  [[nodiscard]] bool is_clone() const {
    return (flags & wire::kClassFlagClone) != 0;
  }

  // The '+'-spec instances are created with (derived first, bases after).
  [[nodiscard]] std::string instance_impl_spec() const;

  void Serialize(Writer& w) const;
  static ClassDefinition Deserialize(Reader& r);
};

// The registered implementation name of class objects themselves.
inline constexpr std::string_view kClassObjectImpl = "legion.class";

class ClassObjectImpl : public ObjectImpl {
 public:
  ClassObjectImpl() = default;
  explicit ClassObjectImpl(ClassDefinition def) : def_(std::move(def)) {}

  [[nodiscard]] std::string implementation_name() const override {
    return std::string(kClassObjectImpl);
  }
  void RegisterMethods(MethodTable& table) override;
  void SaveState(Writer& w) const override;
  Status RestoreState(Reader& r) override;
  [[nodiscard]] InterfaceDescription interface() const override;

  [[nodiscard]] const ClassDefinition& definition() const { return def_; }
  [[nodiscard]] LogicalTable& table() { return table_; }
  [[nodiscard]] const LogicalTable& table() const { return table_; }

  // Used at bootstrap to seed rows for components started outside Legion.
  void register_component(const Loid& loid, const Binding& binding,
                          std::vector<Loid> magistrates = {});
  // Bootstrap configuration: core classes learn the magistrate pool only
  // after magistrates register (they start outside Legion, Section 4.2.1).
  void set_default_magistrates(std::vector<Loid> magistrates) {
    def_.default_magistrates = std::move(magistrates);
  }
  void set_binding_ttl(SimTime ttl_us) { def_.binding_ttl_us = ttl_us; }
  void set_recovery_policy(std::uint32_t suspect_threshold,
                           SimTime probe_timeout_us) {
    def_.suspect_threshold = suspect_threshold;
    def_.probe_timeout_us = probe_timeout_us;
  }
  [[nodiscard]] std::uint64_t creations() const { return creations_; }
  [[nodiscard]] const std::vector<Loid>& clones() const { return clones_; }

 protected:
  // --- class-mandatory operations (also reachable via wire methods) ---
  Result<wire::CreateReply> Create(ObjectContext& ctx,
                                   const wire::CreateRequest& req);
  Result<wire::CreateReply> CreateReplicated(
      ObjectContext& ctx, const wire::CreateReplicatedRequest& req);
  Result<wire::CreateReply> Derive(ObjectContext& ctx,
                                   const wire::DeriveRequest& req);
  Status InheritFrom(ObjectContext& ctx, const Loid& base);
  Status Delete(ObjectContext& ctx, const Loid& target);
  Result<Binding> GetBinding(ObjectContext& ctx,
                             const wire::GetBindingRequest& req);
  Result<wire::CreateReply> Clone(ObjectContext& ctx,
                                  const wire::CreateRequest& req);
  Status MoveInstance(ObjectContext& ctx, const Loid& target,
                      const Loid& dest_magistrate);
  // Failure detection & automatic reactivation (Section 4.1.4's fan-out
  // closed into a loop): probe the Host Object of every placed instance
  // once; hosts that miss `suspect_threshold` consecutive sweeps get their
  // instances reactivated elsewhere from the magistrate's checkpoint.
  Result<wire::SweepReply> SweepInstances(ObjectContext& ctx);
  Status ReactivateInstance(ObjectContext& ctx, const TableRow& found,
                            const Loid& dead_host);
  // Process-isolation leg of the sweep: a live host is asked which of the
  // listed placed instances still run (a worker process can die alone);
  // dead ones are reactivated without condemning the host.
  void CheckHostObjects(ObjectContext& ctx, const Loid& host,
                        const std::vector<Loid>& instances,
                        wire::SweepReply& out);

  // Fresh LOID for a new instance: our class id + sequence number + key
  // (Section 3.2: the class uses the class-specific field as it sees fit).
  [[nodiscard]] Loid next_instance_loid();
  [[nodiscard]] std::vector<std::uint8_t> make_key(std::uint64_t salt) const;

  // Picks the magistrate for a new object.
  Result<Loid> choose_magistrate(ObjectContext& ctx,
                                 const std::vector<Loid>& candidates);

  // True when `host` answered a short Ping within the class's probe timeout.
  [[nodiscard]] bool probe_host(ObjectContext& ctx, const Loid& host);
  // A host that answers probes again after instances were moved off it may
  // still run their orphaned old processes; tell it to discard them.
  void release_fences(ObjectContext& ctx, const Loid& host,
                      std::uint32_t& released);

  ClassDefinition def_;
  LogicalTable table_;
  std::uint64_t next_seq_ = 1;
  std::vector<Loid> clones_;     // Section 5.2.2 load shedding
  std::uint64_t clone_rr_ = 0;   // round-robin cursor over clones
  std::uint64_t creations_ = 0;  // served Create() calls (metrics)

  // Transient failure-detection state (deliberately NOT serialized: a
  // migrated class restarts its evidence from zero rather than condemning a
  // host on stale counts).
  std::unordered_map<Loid, std::uint32_t> missed_probes_;
  struct Fence {
    Loid host;    // the host that was declared dead
    Loid object;  // the instance reactivated away from it
  };
  std::vector<Fence> fences_;
};

}  // namespace legion::core
