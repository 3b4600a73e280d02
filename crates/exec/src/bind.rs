//! Array-instance management.
//!
//! The binder owns the arena of live [`RtArray`] instances: common-block
//! members (one instance program-wide), local arrays (instantiated at
//! subroutine entry so symbolic extents resolve), and argument *views*
//! (an element of an array passed to a subroutine binds the formal to a
//! contiguous window starting at that element — Fortran sequence
//! association, and the paper's portion-passing rule for reshaped
//! arrays).

use std::sync::Arc;

use dsm_ir::{ArrayDecl, DistKind, Extent, Program, Storage, Subroutine};
use dsm_machine::{Machine, VAddr};
use dsm_runtime::{ArrayLayout, DistDescriptor, PoolSet, RtArray};

use crate::value::{Frame, Value};

/// Arena of live array instances plus the per-processor pools backing
/// reshaped portions.
#[derive(Debug)]
pub struct Binder {
    arena: Vec<RtArray>,
    pools: PoolSet,
    commons: Vec<((String, usize), usize)>,
    nprocs: usize,
}

impl Binder {
    /// Create a binder and instantiate every common-block member.
    pub fn new(m: &mut Machine, program: &Program, nprocs: usize) -> Self {
        let mut b = Binder {
            arena: Vec::new(),
            pools: PoolSet::new(m.nprocs(), 16 * m.config().page_size),
            commons: Vec::new(),
            nprocs,
        };
        for c in &program.commons {
            for (mi, member) in c.members.iter().enumerate() {
                // Common extents must be constant (checked by sema: only
                // formals get symbolic extents, and formals cannot be in
                // commons).
                let extents: Vec<u64> = member
                    .dims
                    .iter()
                    .map(|e| match e {
                        Extent::Const(v) => *v as u64,
                        Extent::Var(_) => 1,
                    })
                    .collect();
                let idx = b.instantiate(m, member, &extents);
                b.commons.push(((c.name.clone(), mi), idx));
            }
        }
        b
    }

    /// The instance stored at `idx`.
    pub fn get(&self, idx: usize) -> &RtArray {
        &self.arena[idx]
    }

    /// Mutable instance access (redistribution).
    pub fn get_mut(&mut self, idx: usize) -> &mut RtArray {
        &mut self.arena[idx]
    }

    fn instantiate(&mut self, m: &mut Machine, decl: &ArrayDecl, extents: &[u64]) -> usize {
        let arr = RtArray::instantiate(
            m,
            &mut self.pools,
            &decl.name,
            extents,
            decl.dist.as_ref(),
            decl.dist_kind,
            self.nprocs,
        );
        self.arena.push(arr);
        self.arena.len() - 1
    }

    /// Evaluate an extent against a frame.
    fn extent_value(e: &Extent, frame: &Frame) -> u64 {
        match e {
            Extent::Const(v) => (*v).max(1) as u64,
            Extent::Var(v) => match frame.scalars[v.0] {
                Value::I(n) => n.max(1) as u64,
                Value::F(n) => (n as i64).max(1) as u64,
            },
        }
    }

    /// Bind every non-formal array of `sub` in `frame`: commons attach to
    /// their program-wide instance, locals are instantiated fresh.
    ///
    /// Formals are bound separately by the caller ([`Binder::bind_view`] /
    /// direct arena indices) *before* this runs; scalars used in local
    /// extents must already hold their entry values.
    pub fn bind_declarations(&mut self, m: &mut Machine, sub: &Subroutine, frame: &mut Frame) {
        for (ai, decl) in sub.arrays.iter().enumerate() {
            match &decl.storage {
                Storage::Common { block, member } => {
                    let idx = self
                        .commons
                        .iter()
                        .find(|((b, mi), _)| b == block && mi == member)
                        .map(|(_, idx)| *idx)
                        .expect("validated common member");
                    frame.arrays[ai] = idx;
                }
                Storage::Local => {
                    let extents: Vec<u64> = decl
                        .dims
                        .iter()
                        .map(|e| Self::extent_value(e, frame))
                        .collect();
                    // EQUIVALENCE: share storage with an already-bound
                    // partner (sema guarantees no reshaped member, so all
                    // partners are contiguous). The first member allocates
                    // enough bytes for the largest of the group.
                    let partner_base = decl.equivalenced_with.iter().find_map(|eq| {
                        let inst = *frame.arrays.get(eq.0)?;
                        if inst == usize::MAX {
                            return None;
                        }
                        match self.arena[inst].layout {
                            ArrayLayout::Contiguous { base } => Some(base),
                            ArrayLayout::Reshaped { .. } => None,
                        }
                    });
                    if let Some(base) = partner_base {
                        let desc = Arc::new(DistDescriptor::undistributed(&extents));
                        self.arena.push(RtArray {
                            name: decl.name.clone(),
                            sym: m.intern_symbol(&decl.name),
                            desc,
                            kind: DistKind::None,
                            layout: ArrayLayout::Contiguous { base },
                            elem_bytes: 8,
                        });
                        frame.arrays[ai] = self.arena.len() - 1;
                    } else if decl.equivalenced_with.is_empty() {
                        frame.arrays[ai] = self.instantiate(m, decl, &extents);
                    } else {
                        // First member of its equivalence group: size the
                        // allocation for the largest partner.
                        let mut max_len: u64 = extents.iter().product();
                        for eq in &decl.equivalenced_with {
                            let plen: u64 = sub.arrays[eq.0]
                                .dims
                                .iter()
                                .map(|e| Self::extent_value(e, frame))
                                .product();
                            max_len = max_len.max(plen);
                        }
                        let base = m.alloc((max_len * 8) as usize, 8);
                        let arr = RtArray {
                            name: decl.name.clone(),
                            sym: m.intern_symbol(&decl.name),
                            desc: Arc::new(DistDescriptor::undistributed(&extents)),
                            kind: DistKind::None,
                            layout: ArrayLayout::Contiguous { base },
                            elem_bytes: 8,
                        };
                        // Regular distribution on an equivalenced array
                        // still places its pages.
                        if decl.dist_kind == dsm_ir::DistKind::Regular {
                            if let Some(dist) = &decl.dist {
                                let placed = RtArray {
                                    desc: Arc::new(DistDescriptor::new(
                                        &extents,
                                        dist,
                                        self.nprocs,
                                    )),
                                    kind: dsm_ir::DistKind::Regular,
                                    ..arr.clone()
                                };
                                placed.place_regular(m);
                                self.arena.push(placed);
                                frame.arrays[ai] = self.arena.len() - 1;
                                continue;
                            }
                        }
                        self.arena.push(arr);
                        frame.arrays[ai] = self.arena.len() - 1;
                    }
                }
                Storage::Formal { .. } => {
                    // Bound by the caller; leave as-is.
                }
            }
        }
    }

    /// Create a *view* instance for a formal bound to the window starting
    /// at `base`: a plain contiguous array with the formal's declared
    /// extents (the callee "treats the incoming parameter as a
    /// non-distributed, standard Fortran array").
    pub fn bind_view(
        &mut self,
        m: &mut Machine,
        decl: &ArrayDecl,
        base: VAddr,
        frame: &Frame,
    ) -> usize {
        let extents: Vec<u64> = decl
            .dims
            .iter()
            .map(|e| Self::extent_value(e, frame))
            .collect();
        let desc = Arc::new(DistDescriptor::undistributed(&extents));
        let name = format!("{}@view", decl.name);
        let sym = m.intern_symbol(&name);
        self.arena.push(RtArray {
            name,
            sym,
            desc,
            kind: DistKind::None,
            layout: ArrayLayout::Contiguous { base },
            elem_bytes: 8,
        });
        self.arena.len() - 1
    }

    /// Number of live instances (diagnostics).
    pub fn live(&self) -> usize {
        self.arena.len()
    }

    /// Re-chunk every live regular instance for a team of `new_nprocs`
    /// processors and remember the new team size for later
    /// instantiations. Returns the total number of pages moved.
    ///
    /// # Errors
    ///
    /// Propagates [`dsm_runtime::RuntimeError::ResizeWithReshaped`] if a
    /// reshaped instance is live (sema rejects the directive statically,
    /// but commons instantiated before `main` runs are checked here).
    pub fn resize_team(
        &mut self,
        m: &mut Machine,
        caller: dsm_machine::ProcId,
        new_nprocs: usize,
        scheduled: bool,
    ) -> Result<usize, dsm_runtime::RuntimeError> {
        self.nprocs = new_nprocs;
        let mut moved = 0;
        for arr in &mut self.arena {
            moved += arr.resize_team(m, caller, new_nprocs, scheduled)?;
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_compile::{compile_strings, OptConfig};
    use dsm_machine::MachineConfig;

    fn program(src: &str) -> Program {
        compile_strings(&[("t.f", src)], &OptConfig::none())
            .expect("compiles")
            .program
    }

    #[test]
    fn commons_share_one_instance() {
        let p = program(
            "      program main\n      real*8 a(10)\n      common /blk/ a\n      call s\n      end\n      subroutine s\n      real*8 a(10)\n      common /blk/ a\n      a(1) = 5.0\n      end\n",
        );
        let mut m = Machine::new(MachineConfig::small_test(2));
        let mut b = Binder::new(&mut m, &p, 2);
        let main = p.main_sub();
        let mut f1 = Frame::new(main);
        b.bind_declarations(&mut m, main, &mut f1);
        let s = &p.subs[p.sub_named("s").unwrap().0];
        let mut f2 = Frame::new(s);
        b.bind_declarations(&mut m, s, &mut f2);
        assert_eq!(f1.arrays[0], f2.arrays[0], "same common instance");
        assert_eq!(b.live(), 1);
    }

    #[test]
    fn locals_instantiate_per_entry() {
        let p = program("      program main\n      real*8 a(10)\n      a(1) = 1.0\n      end\n");
        let mut m = Machine::new(MachineConfig::small_test(2));
        let mut b = Binder::new(&mut m, &p, 2);
        let main = p.main_sub();
        let mut f1 = Frame::new(main);
        b.bind_declarations(&mut m, main, &mut f1);
        let mut f2 = Frame::new(main);
        b.bind_declarations(&mut m, main, &mut f2);
        assert_ne!(
            f1.arrays[0], f2.arrays[0],
            "locals are distinct per activation"
        );
    }

    #[test]
    fn symbolic_extent_resolves_from_frame() {
        let p = program(
            "      subroutine s(x, n)\n      integer n\n      real*8 x(n)\n      x(1) = 0.0\n      end\n      program main\n      end\n",
        );
        let s = &p.subs[p.sub_named("s").unwrap().0];
        let mut m = Machine::new(MachineConfig::small_test(2));
        let mut b = Binder::new(&mut m, &p, 2);
        let mut f = Frame::new(s);
        f.scalars[s.scalar_named("n").unwrap().0] = Value::I(42);
        let view = b.bind_view(&mut m, &s.arrays[0], 0x4000, &f);
        assert_eq!(b.get(view).desc.total_len(), 42);
        assert_eq!(b.get(view).addr_of(&[41]), 0x4000 + 41 * 8);
    }
}
