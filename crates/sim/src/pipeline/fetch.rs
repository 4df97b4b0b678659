//! Fetch: in-order instruction supply with branch prediction.
//!
//! Fills the fetch buffer up to `fetch_width` instructions per cycle,
//! predicting conditional branches with the bimodal table and indirect
//! jumps with the BTB. Fences and halts block further fetch until they
//! commit.

use pandora_isa::Instr;

use super::PipelineState;

/// Fetches up to `fetch_width` instructions into the fetch buffer.
pub(crate) fn tick(st: &mut PipelineState) {
    if st.halted || st.fetch_blocked || st.cycle < st.fetch_stall_until {
        return;
    }
    for _ in 0..st.cfg.pipeline.fetch_width {
        if st.fetch_buf.len() >= 2 * st.cfg.pipeline.dispatch_width.max(4) {
            break;
        }
        let Some(&instr) = st.prog.get(st.fetch_pc) else {
            break;
        };
        let pc = st.fetch_pc;
        match instr {
            Instr::Branch { target, .. } => {
                let taken = st.bimodal.predict(pc);
                let next = if taken { target } else { pc + 1 };
                st.fetch_buf.push_back((pc, instr, next));
                st.fetch_pc = next;
                if taken {
                    break;
                }
            }
            Instr::Jal { target, .. } => {
                st.fetch_buf.push_back((pc, instr, target));
                st.fetch_pc = target;
                break;
            }
            Instr::Jalr { .. } => {
                let next = st.btb.predict(pc).unwrap_or(pc + 1);
                st.fetch_buf.push_back((pc, instr, next));
                st.fetch_pc = next;
                break;
            }
            Instr::Fence | Instr::Halt => {
                st.fetch_buf.push_back((pc, instr, pc + 1));
                st.fetch_pc = pc + 1;
                st.fetch_blocked = true;
                break;
            }
            _ => {
                st.fetch_buf.push_back((pc, instr, pc + 1));
                st.fetch_pc = pc + 1;
            }
        }
    }
}
