//! Every stand-in's `grad` and `eval`, held bit for bit.
//!
//! A few SGD steps on a fixed micro-batch, then an evaluation. Each config
//! pins a digest of every gradient, loss and stateful tensor that the steps
//! produced, plus the evaluation's loss and accuracy as `f32::to_bits`. A
//! rewrite of a model's layers that moves one rounding fails here; the
//! figures reach only some of these paths (no BN, Tanh/GELU or residual
//! evaluation is in one).

use std::error::Error;
use vf_data::synthetic::{ClusterTask, ImageTask};
use vf_data::Dataset;
use vf_models::trainable::Activation;
use vf_models::{Architecture, ConvNet, Mlp, ResidualMlp};
use vf_tensor::optim::{Optimizer, Sgd};
use vf_tensor::Tensor;

/// `(digest of the steps, eval loss bits, eval accuracy bits)`.
type Pin = (u64, u32, u32);

fn fnv(h: &mut u64, word: u32) {
    for byte in word.to_le_bytes() {
        *h ^= u64::from(byte);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_tensors(h: &mut u64, tensors: &[Tensor]) {
    for t in tensors {
        for &x in t.data() {
            fnv(h, x.to_bits());
        }
    }
}

fn run(arch: &dyn Architecture, data: &Dataset, batch: usize) -> Result<Pin, Box<dyn Error>> {
    let (x, y) = data.gather(&(0..batch).collect::<Vec<_>>())?;
    let mut params = arch.init_params(3);
    let mut st = arch.init_stateful();
    let mut opt = Sgd::new(0.1);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for _ in 0..3 {
        let r = arch.grad(&params, &mut st, &x, &y)?;
        fnv_tensors(&mut h, &r.grads);
        fnv(&mut h, r.loss.to_bits());
        fnv_tensors(&mut h, st.tensors());
        opt.step(&mut params, &r.grads)?;
    }
    let e = arch.eval(&params, &st, &x, &y)?;
    Ok((h, e.loss.to_bits(), e.accuracy.to_bits()))
}

fn mlp(activation: Activation) -> Mlp {
    let mut m = Mlp::new(16, vec![32, 16], 4);
    m.activation = activation;
    m
}

#[test]
fn every_stand_in_keeps_its_bits() {
    let clusters = ClusterTask::easy(11).generate().unwrap();
    let images = ImageTask::small(12).generate().unwrap();
    let cases: [(&str, Box<dyn Architecture>, &Dataset, Pin); 7] = [
        (
            "mlp relu",
            Box::new(mlp(Activation::Relu)),
            &clusters,
            (0x767161fe8b8ca663, 0x3d3da751, 0x3f800000),
        ),
        (
            "mlp tanh",
            Box::new(mlp(Activation::Tanh)),
            &clusters,
            (0xdac5bde67b3551b4, 0x3f2987cd, 0x3f755555),
        ),
        (
            "mlp gelu",
            Box::new(mlp(Activation::Gelu)),
            &clusters,
            (0xbc130a1f2d4192c1, 0x3d297de1, 0x3f800000),
        ),
        (
            "mlp bn",
            Box::new(mlp(Activation::Relu).with_batch_norm()),
            &clusters,
            (0xc7b0b080594f33bc, 0x3f258877, 0x3f455555),
        ),
        (
            "convnet",
            Box::new(ConvNet::new(1, 8, 8, 8, 2, 4)),
            &images,
            (0x1486dd2a450cbef8, 0x3fb64f63, 0x3e800000),
        ),
        (
            "resmlp",
            Box::new(ResidualMlp::new(16, 24, 2, 4)),
            &clusters,
            (0xbf945af7f71b3f0e, 0x3ba25d51, 0x3f800000),
        ),
        (
            "resmlp dropout",
            Box::new(ResidualMlp::new(16, 24, 2, 4).with_dropout(0.2)),
            &clusters,
            (0x3482fbc592582ec8, 0x3b43849f, 0x3f800000),
        ),
    ];
    let mut wrong = Vec::new();
    for (name, arch, data, pin) in &cases {
        let got = run(arch.as_ref(), data, 48).unwrap();
        if got != *pin {
            wrong.push(format!(
                "{name}: got ({:#x}, {:#x}, {:#x}), pinned {pin:x?}",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
