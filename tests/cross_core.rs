//! Cross-core integration (§II-3 cloud placement): the DMP leak
//! observed from a second core through the shared L2, with no timer in
//! the sandbox.

use pandora::isa::{Asm, Reg};
use pandora::sandbox::{
    compile, verify, BpfAluOp, BpfProgram, BpfReg, Cmp, Inst, MapDef, SandboxLayout, Src,
};
use pandora::sim::{DuoMachine, Machine, OptConfig, SimConfig};

const SECRET_ADDR: u64 = 0x20_0000;

fn r(i: u8) -> BpfReg {
    BpfReg(i)
}

fn trigger_program() -> BpfProgram {
    let mut p = BpfProgram::new(vec![
        MapDef::new("Z", 8, 16),
        MapDef::new("Y", 1, 64),
        MapDef::new("X", 64, 256),
    ]);
    p.push(Inst::MovImm { dst: r(1), imm: 0 });
    let head = p.insts.len();
    p.push(Inst::Lookup {
        dst: r(2),
        map: 0,
        idx: r(1),
    });
    let cont = 11;
    p.push(Inst::JmpIf {
        cmp: Cmp::Eq,
        a: r(2),
        b: Src::Imm(0),
        target: cont,
    });
    p.push(Inst::LoadInd {
        dst: r(3),
        ptr: r(2),
    });
    p.push(Inst::Lookup {
        dst: r(4),
        map: 1,
        idx: r(3),
    });
    p.push(Inst::JmpIf {
        cmp: Cmp::Eq,
        a: r(4),
        b: Src::Imm(0),
        target: cont,
    });
    p.push(Inst::LoadInd {
        dst: r(5),
        ptr: r(4),
    });
    p.push(Inst::Lookup {
        dst: r(6),
        map: 2,
        idx: r(5),
    });
    p.push(Inst::JmpIf {
        cmp: Cmp::Eq,
        a: r(6),
        b: Src::Imm(0),
        target: cont,
    });
    p.push(Inst::LoadInd {
        dst: r(7),
        ptr: r(6),
    });
    p.push(Inst::MovReg {
        dst: r(0),
        src: r(7),
    });
    assert_eq!(p.insts.len(), cont);
    p.push(Inst::Alu {
        op: BpfAluOp::Add,
        dst: r(1),
        src: Src::Imm(1),
    });
    p.push(Inst::JmpIf {
        cmp: Cmp::Lt,
        a: r(1),
        b: Src::Imm(15),
        target: head,
    });
    p.push(Inst::Exit);
    p
}

#[test]
fn dmp_leak_observed_from_the_other_core() {
    let secret = 0x6Bu8;
    let prog = trigger_program();
    verify(&prog).expect("trigger verifies");
    let layout = SandboxLayout::at(0x4_0000, &prog.maps);

    // Victim core: sandboxed trigger under a 3-level IMP.
    let mut asm = Asm::new();
    compile(&mut asm, "t", &prog, &layout).unwrap();
    asm.halt();
    let mut victim = Machine::new(SimConfig::with_opts(OptConfig::with_dmp(3)));
    victim.load_program(&asm.assemble().unwrap());
    victim.mem_mut().write_u8(SECRET_ADDR, secret).unwrap();
    let (z, y) = (layout.map_base(0), layout.map_base(1));
    for i in 0..15u64 {
        victim.mem_mut().write_u64(z + 8 * i, 1 + i % 3).unwrap();
    }
    victim
        .mem_mut()
        .write_u64(z + 8 * 15, SECRET_ADDR - y)
        .unwrap();
    for j in 0..64u64 {
        victim.mem_mut().write_u8(y + j, (1 + j % 3) as u8).unwrap();
    }

    // Receiver core: waits, then times every X line.
    let x_base = layout.map_base(2);
    let result = 0x100u64;
    let mut rx = Asm::new();
    rx.li(Reg::T6, 3000);
    rx.label("wait");
    rx.addi(Reg::T6, Reg::T6, -1);
    rx.bnez(Reg::T6, "wait");
    for k in 0..256u64 {
        let i = (k * 167) % 256;
        rx.fence();
        rx.rdcycle(Reg::T3);
        rx.ld(Reg::T4, Reg::ZERO, (x_base + i * 64) as i64);
        rx.fence();
        rx.rdcycle(Reg::T5);
        rx.sub(Reg::T5, Reg::T5, Reg::T3);
        rx.sd(Reg::T5, Reg::ZERO, (result + i * 8) as i64);
    }
    rx.halt();
    let mut receiver = Machine::new(SimConfig::default());
    receiver.load_program(&rx.assemble().unwrap());

    let mut duo = DuoMachine::new(victim, receiver);
    duo.run(10_000_000).expect("both cores halt");

    let timings: Vec<u64> = (0..256)
        .map(|i| duo.core_b().mem().read_u64(result + i * 8).unwrap())
        .collect();
    let hot: Vec<usize> = timings
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t < 60)
        .map(|(i, _)| i)
        .collect();
    let leaked: Vec<usize> = hot
        .into_iter()
        .filter(|&i| !(1..=3).contains(&i))
        .collect();
    assert_eq!(leaked, vec![secret as usize]);
}

#[test]
fn no_leak_on_the_baseline_machine_cross_core() {
    // Same setup without the DMP: the receiver sees only the training
    // lines, never the secret.
    let secret = 0x6Bu8;
    let prog = trigger_program();
    let layout = SandboxLayout::at(0x4_0000, &prog.maps);
    let mut asm = Asm::new();
    compile(&mut asm, "t", &prog, &layout).unwrap();
    asm.halt();
    let mut victim = Machine::new(SimConfig::default());
    victim.load_program(&asm.assemble().unwrap());
    victim.mem_mut().write_u8(SECRET_ADDR, secret).unwrap();
    let (z, y) = (layout.map_base(0), layout.map_base(1));
    for i in 0..15u64 {
        victim.mem_mut().write_u64(z + 8 * i, 1 + i % 3).unwrap();
    }
    victim
        .mem_mut()
        .write_u64(z + 8 * 15, SECRET_ADDR - y)
        .unwrap();
    for j in 0..64u64 {
        victim.mem_mut().write_u8(y + j, (1 + j % 3) as u8).unwrap();
    }
    let mut idle = Asm::new();
    idle.nop();
    idle.halt();
    let mut receiver = Machine::new(SimConfig::default());
    receiver.load_program(&idle.assemble().unwrap());

    let mut duo = DuoMachine::new(victim, receiver);
    duo.run(10_000_000).expect("both cores halt");
    let hot_secret_line = duo
        .shared_l2()
        .probe(layout.map_base(2) + u64::from(secret) * 64);
    assert!(!hot_secret_line, "no prefetcher, no transmission");
}
