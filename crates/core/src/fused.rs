//! Fused (optimized) connector models.
//!
//! The paper's Section 6 observes that decomposing a connector into port and
//! channel processes adds internal concurrency and inflates the state space,
//! and proposes recognizing *common* connector compositions and substituting
//! specially optimized models. This module provides such fused models: a
//! single process that implements the end-to-end observable protocol of a
//! (send port, channel, receive port) triple with a fraction of the internal
//! steps.
//!
//! Fused connectors support exactly one sender and one receiver component
//! and bake their port semantics in — [`crate::SystemBuilder`] rejects
//! attempts to re-port them. The `experiments` binary's E11 table
//! quantifies the state-space savings.
//!
//! One deliberate semantic nuance: a *composed* blocking receive polls the
//! channel (request, `OUT_FAIL`, retry), so an unsatisfiable selective
//! receive livelocks; the fused model simply waits, so the same situation
//! is reported as a deadlock. For the verification questions in this
//! reproduction (safety invariants, deadlock-freedom of correct designs)
//! the models agree.

use pnp_kernel::{expr, Action, FieldPat, Guard, NativeGuard, NativeOp, ProcessBuilder};

use crate::signals::{field, SynChan, NO_PID, RECV_SUCC, SEND_SUCC};
use crate::system::{RecvAttachment, SendAttachment, SystemBuilder};

/// The available fused connector models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedConnectorKind {
    /// Equivalent to `AsynBlockingSend -> FIFO(capacity) -> BlRecv(remove)`:
    /// the sender is released as soon as the message is buffered; the
    /// receiver blocks until a matching message exists.
    AsyncFifo {
        /// Buffer capacity (≥ 1).
        capacity: usize,
    },
    /// Equivalent to `SynBlockingSend -> SingleSlot -> BlRecv(remove)`: the
    /// sender is released only after the receiver has taken the message.
    SyncHandshake,
}

impl FusedConnectorKind {
    /// The library name of the kind.
    pub fn name(self) -> String {
        match self {
            FusedConnectorKind::AsyncFifo { capacity } => format!("FusedAsyncFifo({capacity})"),
            FusedConnectorKind::SyncHandshake => "FusedSyncHandshake".to_string(),
        }
    }

    /// The composed blocks this fused model replaces, for documentation and
    /// the ablation benchmark.
    pub fn replaces(self) -> String {
        match self {
            FusedConnectorKind::AsyncFifo { capacity } => {
                format!("AsynBlockingSend -> FIFO({capacity}) -> BlRecv(remove)")
            }
            FusedConnectorKind::SyncHandshake => {
                "SynBlockingSend -> SingleSlot -> BlRecv(remove)".to_string()
            }
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct FusedSpec {
    pub(crate) name: String,
    pub(crate) kind: FusedConnectorKind,
    pub(crate) sender_link: SynChan,
    pub(crate) receiver_link: SynChan,
}

impl SystemBuilder {
    /// Declares a fused connector, returning the attachments for its single
    /// sender and single receiver component.
    pub fn fused_connector(
        &mut self,
        name: impl Into<String>,
        kind: FusedConnectorKind,
    ) -> (SendAttachment, RecvAttachment) {
        let name = name.into();
        let sender_link = SynChan::declare(&mut self.prog, &format!("{name}.sender"));
        let receiver_link = SynChan::declare(&mut self.prog, &format!("{name}.receiver"));
        self.fused.push(FusedSpec {
            name: name.clone(),
            kind,
            sender_link,
            receiver_link,
        });
        (
            SendAttachment {
                index: None,
                link: sender_link,
                label: format!("{name}.sender"),
            },
            RecvAttachment {
                index: None,
                link: receiver_link,
                label: format!("{name}.receiver"),
            },
        )
    }
}

pub(crate) fn fused_process(spec: &FusedSpec) -> ProcessBuilder {
    match spec.kind {
        FusedConnectorKind::AsyncFifo { capacity } => {
            async_fifo_process(&spec.name, capacity, spec.sender_link, spec.receiver_link)
        }
        FusedConnectorKind::SyncHandshake => {
            sync_handshake_process(&spec.name, spec.sender_link, spec.receiver_link)
        }
    }
}

fn async_fifo_process(
    name: &str,
    capacity: usize,
    sender: SynChan,
    receiver: SynChan,
) -> ProcessBuilder {
    assert!(capacity >= 1, "fused connector capacity must be at least 1");
    const SLOT: usize = 2; // (data, tag)

    let mut p = ProcessBuilder::new(format!("{name}.fused"));
    let buf = p.local_block("buf", capacity * SLOT, 0);
    let len = p.local("len", 0);
    let m_data = p.local("m_data", 0);
    let m_tag = p.local("m_tag", 0);
    let r_sel = p.local("r_sel", 0);
    let r_tag = p.local("r_tag", 0);
    let out_data = p.local("out_data", 0);
    let out_tag = p.local("out_tag", 0);

    let idle = p.location("idle");
    let store_msg = p.location("store_msg");
    let ack_send = p.location("ack_send");
    let pending = p.location("pending");
    let pending_store = p.location("pending_store");
    let pending_ack = p.location("pending_ack");
    let deliver_status = p.location("deliver_status");
    let deliver_data = p.location("deliver_data");
    let cleanup = p.location("cleanup");

    let (b, l, md, mt, rs, rt, od, ot) = (
        buf.index(),
        len.index(),
        m_data.index(),
        m_tag.index(),
        r_sel.index(),
        r_tag.index(),
        out_data.index(),
        out_tag.index(),
    );

    let has_space = NativeGuard::new("buffer has space", move |loc| (loc[l] as usize) < capacity);
    let push = NativeOp::new("buffer message", move |loc| {
        let n = loc[l] as usize;
        loc[b + n * SLOT] = loc[md];
        loc[b + n * SLOT + 1] = loc[mt];
        loc[l] += 1;
        loc[md] = 0;
        loc[mt] = 0;
    });
    let match_at = move |loc: &[i32]| -> Option<usize> {
        let n = loc[l] as usize;
        if loc[rs] == 0 {
            (n > 0).then_some(0)
        } else {
            (0..n).find(|&i| loc[b + i * SLOT + 1] == loc[rt])
        }
    };
    let has_match = NativeGuard::new("matching message buffered", move |loc| {
        match_at(loc).is_some()
    });
    let no_match_has_space = NativeGuard::new("no match, space left", move |loc| {
        match_at(loc).is_none() && (loc[l] as usize) < capacity
    });
    let take = NativeOp::new("take message", move |loc| {
        let i = match_at(loc).expect("take fired without a match");
        loc[od] = loc[b + i * SLOT];
        loc[ot] = loc[b + i * SLOT + 1];
        let n = loc[l] as usize;
        for j in i..n - 1 {
            loc[b + j * SLOT] = loc[b + (j + 1) * SLOT];
            loc[b + j * SLOT + 1] = loc[b + (j + 1) * SLOT + 1];
        }
        loc[b + (n - 1) * SLOT] = 0;
        loc[b + (n - 1) * SLOT + 1] = 0;
        loc[l] -= 1;
        loc[rs] = 0;
        loc[rt] = 0;
    });
    let clear_out = NativeOp::new("clear delivery scratch", move |loc| {
        loc[od] = 0;
        loc[ot] = 0;
    });

    let recv_msg = Action::recv(
        sender.data,
        vec![FieldPat::Any; 4],
        vec![(field::DATA, m_data.into()), (field::TAG, m_tag.into())],
    );
    let recv_req = Action::recv(
        receiver.data,
        vec![FieldPat::Any; 4],
        vec![(field::DATA, r_sel.into()), (field::TAG, r_tag.into())],
    );
    let send_succ = Action::send(sender.signal, vec![SEND_SUCC.into(), NO_PID.into()]);

    p.transition(
        idle,
        store_msg,
        Guard::native(has_space.clone()),
        recv_msg.clone(),
        "accept message",
    );
    p.transition(
        store_msg,
        ack_send,
        Guard::always(),
        Action::Native(push.clone()),
        "buffer",
    );
    p.transition(
        ack_send,
        idle,
        Guard::always(),
        send_succ.clone(),
        "SEND_SUCC",
    );
    p.transition(
        idle,
        pending,
        Guard::always(),
        recv_req,
        "accept receive request",
    );
    // While a receive request waits for a matching message, the sender may
    // continue filling the buffer.
    p.transition(
        pending,
        pending_store,
        Guard::native(no_match_has_space),
        recv_msg,
        "accept message while receiver waits",
    );
    p.transition(
        pending_store,
        pending_ack,
        Guard::always(),
        Action::Native(push),
        "buffer",
    );
    p.transition(
        pending_ack,
        pending,
        Guard::always(),
        send_succ,
        "SEND_SUCC",
    );
    p.transition(
        pending,
        deliver_status,
        Guard::native(has_match),
        Action::Native(take),
        "select message",
    );
    p.transition(
        deliver_status,
        deliver_data,
        Guard::always(),
        Action::send(receiver.signal, vec![RECV_SUCC.into(), NO_PID.into()]),
        "RECV_SUCC",
    );
    p.transition(
        deliver_data,
        cleanup,
        Guard::always(),
        Action::send(
            receiver.data,
            vec![
                expr::local(out_data),
                expr::local(out_tag),
                NO_PID.into(),
                NO_PID.into(),
            ],
        ),
        "deliver message",
    );
    p.transition(
        cleanup,
        idle,
        Guard::always(),
        Action::Native(clear_out),
        "cleanup",
    );

    p.mark_end(idle);
    p
}

fn sync_handshake_process(name: &str, sender: SynChan, receiver: SynChan) -> ProcessBuilder {
    let mut p = ProcessBuilder::new(format!("{name}.fused"));
    let m_data = p.local("m_data", 0);
    let m_tag = p.local("m_tag", 0);

    let idle = p.location("idle");
    let have_msg = p.location("have_msg");
    let have_req = p.location("have_req");
    let deliver_status = p.location("deliver_status");
    let deliver_data = p.location("deliver_data");
    let ack_send = p.location("ack_send");

    let recv_msg = Action::recv(
        sender.data,
        vec![FieldPat::Any; 4],
        vec![(field::DATA, m_data.into()), (field::TAG, m_tag.into())],
    );
    let recv_req = Action::recv(receiver.data, vec![FieldPat::Any; 4], vec![]);

    p.transition(
        idle,
        have_msg,
        Guard::always(),
        recv_msg.clone(),
        "accept message",
    );
    p.transition(
        idle,
        have_req,
        Guard::always(),
        recv_req.clone(),
        "accept receive request",
    );
    p.transition(
        have_msg,
        deliver_status,
        Guard::always(),
        recv_req,
        "accept receive request",
    );
    p.transition(
        have_req,
        deliver_status,
        Guard::always(),
        recv_msg,
        "accept message",
    );
    p.transition(
        deliver_status,
        deliver_data,
        Guard::always(),
        Action::send(receiver.signal, vec![RECV_SUCC.into(), NO_PID.into()]),
        "RECV_SUCC",
    );
    p.transition(
        deliver_data,
        ack_send,
        Guard::always(),
        Action::send(
            receiver.data,
            vec![
                expr::local(m_data),
                expr::local(m_tag),
                NO_PID.into(),
                NO_PID.into(),
            ],
        ),
        "deliver message",
    );
    // The sender's SEND_SUCC only after the receiver has the message: the
    // synchronous contract.
    p.transition(
        ack_send,
        idle,
        Guard::always(),
        Action::send(sender.signal, vec![SEND_SUCC.into(), NO_PID.into()]),
        "SEND_SUCC",
    );

    p.mark_end(idle);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_replacements() {
        let k = FusedConnectorKind::AsyncFifo { capacity: 3 };
        assert_eq!(k.name(), "FusedAsyncFifo(3)");
        assert!(k.replaces().contains("FIFO(3)"));
        let k = FusedConnectorKind::SyncHandshake;
        assert_eq!(k.name(), "FusedSyncHandshake");
        assert!(k.replaces().contains("SynBlockingSend"));
    }

    #[test]
    fn fused_templates_validate() {
        let mut sys = SystemBuilder::new();
        let (tx, rx) = sys.fused_connector("f1", FusedConnectorKind::AsyncFifo { capacity: 2 });
        let (tx2, rx2) = sys.fused_connector("f2", FusedConnectorKind::SyncHandshake);
        assert!(tx.index.is_none() && rx.index.is_none());
        assert_ne!(tx.component_link(), tx2.component_link());
        assert_ne!(rx.component_link(), rx2.component_link());
        let mut c = crate::ComponentBuilder::new("c");
        let s0 = c.location("s0");
        c.mark_end(s0);
        sys.add_component(c);
        let system = sys.build().unwrap();
        assert_eq!(system.program().processes().len(), 3); // 2 fused + 1 component
    }

    #[test]
    #[should_panic(expected = "fused-connector attachments cannot be re-ported")]
    fn fused_attachments_cannot_be_swapped() {
        let mut sys = SystemBuilder::new();
        let (tx, _rx) = sys.fused_connector("f", FusedConnectorKind::SyncHandshake);
        sys.set_send_port_kind(&tx, crate::SendPortKind::AsynBlocking);
    }
}
