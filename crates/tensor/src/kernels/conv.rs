//! 2-D convolution and pooling kernels (NCHW layout).
//!
//! These support the computer-vision models (ResNet / MobileNet / VGG /
//! SqueezeNet) used in the paper's memory-planning footprint study
//! (Section 6.3). Convolution is im2col + GEMM, reusing the dense inner
//! loops.

use super::gemm::{gemm, Epilogue};
use super::matmul::MatmulSchedule;
use crate::{Result, Tensor, TensorError};

/// 2-D convolution, NCHW input `[n, c, h, w]`, OIHW weights
/// `[oc, c, kh, kw]`, symmetric `stride` and zero `padding`.
///
/// # Errors
/// Fails on rank/channel mismatches or when the kernel does not fit the
/// padded input.
pub fn conv2d(input: &Tensor, weight: &Tensor, stride: usize, padding: usize) -> Result<Tensor> {
    if input.rank() != 4 || weight.rank() != 4 {
        return Err(TensorError::invalid("conv2d: input/weight must be rank 4"));
    }
    if stride == 0 {
        return Err(TensorError::invalid("conv2d: stride must be positive"));
    }
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (oc, wc, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    if c != wc {
        return Err(TensorError::shape(
            "conv2d channels",
            input.dims(),
            weight.dims(),
        ));
    }
    let hp = h + 2 * padding;
    let wp = w + 2 * padding;
    if kh > hp || kw > wp {
        return Err(TensorError::invalid("conv2d: kernel larger than input"));
    }
    let oh = (hp - kh) / stride + 1;
    let ow = (wp - kw) / stride + 1;

    let x = input.as_f32()?;
    let k = c * kh * kw;
    let mut out = vec![0.0f32; n * oc * oh * ow];

    // The OIHW weight flattens to [oc, c*kh*kw] — exactly the transposed
    // dense layout, so the im2col GEMM shares the weight pre-pack cache.
    let profile = crate::pool::default_profile();
    let sched = MatmulSchedule::for_profile(profile).sanitized();
    let packed_w = crate::prepack::get_or_pack(weight, oc, k, sched.tile_k)?;

    // im2col buffer for one image: [oh*ow, c*kh*kw]
    let mut col = vec![0.0f32; oh * ow * k];
    for img in 0..n {
        col.iter_mut().for_each(|v| *v = 0.0);
        for ci in 0..c {
            let chan = &x[(img * c + ci) * h * w..(img * c + ci + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let col_row = (oy * ow + ox) * k + ci * kh * kw;
                    for ky in 0..kh {
                        let iy = oy * stride + ky;
                        if iy < padding || iy >= h + padding {
                            continue;
                        }
                        let iy = iy - padding;
                        for kx in 0..kw {
                            let ix = ox * stride + kx;
                            if ix < padding || ix >= w + padding {
                                continue;
                            }
                            let ix = ix - padding;
                            col[col_row + ky * kw + kx] = chan[iy * w + ix];
                        }
                    }
                }
            }
        }
        // out[img]: [oh*ow, oc] = col [oh*ow, k] · weightᵀ [oc, k]
        let mut img_out = vec![0.0f32; oh * ow * oc];
        gemm(
            profile,
            &col,
            &packed_w,
            oh * ow,
            &mut img_out,
            sched,
            &Epilogue::NONE,
        );
        // Transpose [oh*ow, oc] -> [oc, oh, ow].
        let base = img * oc * oh * ow;
        for p in 0..oh * ow {
            for o in 0..oc {
                out[base + o * oh * ow + p] = img_out[p * oc + o];
            }
        }
    }
    Tensor::from_vec_f32(out, &[n, oc, oh, ow])
}

fn pool2d(
    input: &Tensor,
    kernel: usize,
    stride: usize,
    init: f32,
    acc: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32, usize) -> f32,
) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::invalid("pool2d: input must be rank 4"));
    }
    if kernel == 0 || stride == 0 {
        return Err(TensorError::invalid(
            "pool2d: kernel/stride must be positive",
        ));
    }
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    if kernel > h || kernel > w {
        return Err(TensorError::invalid("pool2d: kernel larger than input"));
    }
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let x = input.as_f32()?;
    let mut out = vec![0.0f32; n * c * oh * ow];
    for nc in 0..n * c {
        let chan = &x[nc * h * w..(nc + 1) * h * w];
        let obase = nc * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut v = init;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        v = acc(v, chan[(oy * stride + ky) * w + ox * stride + kx]);
                    }
                }
                out[obase + oy * ow + ox] = finish(v, kernel * kernel);
            }
        }
    }
    Tensor::from_vec_f32(out, &[n, c, oh, ow])
}

/// Max pooling with square kernel.
///
/// # Errors
/// Fails for non-rank-4 input or a kernel larger than the input.
pub fn max_pool2d(input: &Tensor, kernel: usize, stride: usize) -> Result<Tensor> {
    pool2d(input, kernel, stride, f32::NEG_INFINITY, f32::max, |v, _| v)
}

/// Average pooling with square kernel.
///
/// # Errors
/// Fails for non-rank-4 input or a kernel larger than the input.
pub fn avg_pool2d(input: &Tensor, kernel: usize, stride: usize) -> Result<Tensor> {
    pool2d(
        input,
        kernel,
        stride,
        0.0,
        |a, b| a + b,
        |v, n| v / n as f32,
    )
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
///
/// # Errors
/// Fails for non-rank-4 input.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::invalid("global_avg_pool: rank 4 required"));
    }
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let x = input.as_f32()?;
    let mut out = vec![0.0f32; n * c];
    for nc in 0..n * c {
        out[nc] = x[nc * h * w..(nc + 1) * h * w].iter().sum::<f32>() / (h * w) as f32;
    }
    Tensor::from_vec_f32(out, &[n, c])
}

/// Inference-mode batch normalization over channels of an NCHW tensor.
///
/// # Errors
/// Fails when the parameter vectors do not match the channel count.
pub fn batch_norm(
    input: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    if input.rank() != 4 {
        return Err(TensorError::invalid("batch_norm: rank 4 required"));
    }
    let c = input.dims()[1];
    for p in [gamma, beta, mean, var] {
        if p.dims() != [c] {
            return Err(TensorError::shape("batch_norm params", &[c], p.dims()));
        }
    }
    let (n, h, w) = (input.dims()[0], input.dims()[2], input.dims()[3]);
    let x = input.as_f32()?;
    let g = gamma.as_f32()?;
    let b = beta.as_f32()?;
    let m = mean.as_f32()?;
    let v = var.as_f32()?;
    let mut out = vec![0.0f32; x.len()];
    for img in 0..n {
        for ci in 0..c {
            let scale = g[ci] / (v[ci] + eps).sqrt();
            let shift = b[ci] - m[ci] * scale;
            let base = (img * c + ci) * h * w;
            for i in 0..h * w {
                out[base + i] = x[base + i] * scale + shift;
            }
        }
    }
    Tensor::from_vec_f32(out, input.dims())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1.0 reproduces the input.
        let x = Tensor::from_vec_f32((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let w = Tensor::ones_f32(&[1, 1, 1, 1]);
        let y = conv2d(&x, &w, 1, 0).unwrap();
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        assert_eq!(y.as_f32().unwrap(), x.as_f32().unwrap());
    }

    #[test]
    fn conv2d_sum_kernel() {
        // 2x2 all-ones kernel computes local sums.
        let x = Tensor::from_vec_f32(vec![1., 2., 3., 4.], &[1, 1, 2, 2]).unwrap();
        let w = Tensor::ones_f32(&[1, 1, 2, 2]);
        let y = conv2d(&x, &w, 1, 0).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.as_f32().unwrap(), &[10.0]);
    }

    #[test]
    fn conv2d_padding_and_stride() {
        let x = Tensor::ones_f32(&[1, 1, 4, 4]);
        let w = Tensor::ones_f32(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, 2, 1).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        // Corner window covers 2x2 ones = 4; etc.
        assert_eq!(y.as_f32().unwrap(), &[4.0, 6.0, 6.0, 9.0]);
    }

    #[test]
    fn conv2d_multi_channel() {
        // Two input channels, each filled with a constant; the kernel sums
        // them with weights 1 and 10.
        let mut xv = vec![1.0f32; 9];
        xv.extend(vec![2.0f32; 9]);
        let x = Tensor::from_vec_f32(xv, &[1, 2, 3, 3]).unwrap();
        let mut wv = vec![1.0f32; 1];
        wv.extend(vec![10.0f32; 1]);
        let w = Tensor::from_vec_f32(wv, &[1, 2, 1, 1]).unwrap();
        let y = conv2d(&x, &w, 1, 0).unwrap();
        assert!(y.as_f32().unwrap().iter().all(|&v| (v - 21.0).abs() < 1e-6));
    }

    #[test]
    fn conv2d_validates() {
        let x = Tensor::ones_f32(&[1, 2, 4, 4]);
        let w = Tensor::ones_f32(&[1, 3, 1, 1]);
        assert!(conv2d(&x, &w, 1, 0).is_err());
        assert!(conv2d(&x, &Tensor::ones_f32(&[1, 2, 9, 9]), 1, 0).is_err());
        assert!(conv2d(&x, &Tensor::ones_f32(&[1, 2, 1, 1]), 0, 0).is_err());
    }

    #[test]
    fn pools() {
        let x = Tensor::from_vec_f32((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let mx = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(mx.dims(), &[1, 1, 2, 2]);
        assert_eq!(mx.as_f32().unwrap(), &[6., 8., 14., 16.]);
        let av = avg_pool2d(&x, 2, 2).unwrap();
        assert_eq!(av.as_f32().unwrap(), &[3.5, 5.5, 11.5, 13.5]);
        let g = global_avg_pool(&x).unwrap();
        assert_eq!(g.dims(), &[1, 1]);
        assert_eq!(g.as_f32().unwrap(), &[8.5]);
    }

    #[test]
    fn batch_norm_normalizes() {
        let x = Tensor::from_vec_f32(vec![2.0, 4.0], &[1, 1, 1, 2]).unwrap();
        let g = Tensor::ones_f32(&[1]);
        let b = Tensor::zeros(crate::DType::F32, &[1]);
        let mean = Tensor::from_vec_f32(vec![3.0], &[1]).unwrap();
        let var = Tensor::ones_f32(&[1]);
        let y = batch_norm(&x, &g, &b, &mean, &var, 0.0).unwrap();
        assert_eq!(y.as_f32().unwrap(), &[-1.0, 1.0]);
        let bad = Tensor::ones_f32(&[2]);
        assert!(batch_norm(&x, &bad, &b, &mean, &var, 0.0).is_err());
    }
}
