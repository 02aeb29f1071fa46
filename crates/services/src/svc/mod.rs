//! Implementations of the Table 2 system services.
//!
//! The services whose state Flux's evaluation actually exercises —
//! notifications, alarms, sensors, activity/receivers, audio, wifi and
//! connectivity, location, power, clipboard, vibrator — have full state
//! machines. The remaining Table 2 services share the [`simple::SimpleService`]
//! implementation, which faithfully tracks per-app call state without
//! service-specific behaviour (their record/replay semantics come entirely
//! from their decorations, which is the point of the DSL).

pub mod activity;
pub mod alarm;
pub mod audio;
pub mod clipboard;
pub mod connectivity;
pub mod location;
pub mod notification;
pub mod package;
pub mod power;
pub mod sensor;
pub mod simple;
pub mod vibrator;
pub mod wifi;
pub mod window;

use crate::host::ServiceHost;
use crate::registry;
use flux_binder::BinderError;
use flux_kernel::Kernel;
use flux_simcore::Uid;

/// Device-derived configuration the services need.
///
/// `flux-services` does not depend on `flux-device`; the environment builds
/// this from a `DeviceProfile`.
#[derive(Debug, Clone)]
pub struct ServicesConfig {
    /// Sensor names the SensorService exposes.
    pub sensors: Vec<String>,
    /// Whether a GPS receiver exists.
    pub has_gps: bool,
    /// Whether a vibration motor exists.
    pub has_vibrator: bool,
    /// Camera count.
    pub cameras: u32,
    /// Maximum volume index per stream (all streams share one range here).
    pub max_volume: i32,
    /// Screen width/height, reported through Configuration.
    pub screen: (u32, u32),
}

impl Default for ServicesConfig {
    fn default() -> Self {
        Self {
            sensors: vec!["accelerometer".into(), "gyroscope".into()],
            has_gps: true,
            has_vibrator: true,
            cameras: 1,
            max_volume: 15,
            screen: (1200, 1920),
        }
    }
}

/// Boots a complete Android service stack on `kernel`: spawns the
/// `system_server` process, registers all 22 Table 2 services (plus the
/// WindowManager and PackageManager, which Flux interacts with but the
/// paper does not decorate) with the ServiceManager, and returns the host.
/// The host borrows the framework's interface table
/// ([`registry::framework`]), which is compiled once per process.
// `Box::new(T::default())` is intentional: the boxes coerce to
// `Box<dyn SystemService>`, which `Box::default()` cannot produce.
#[allow(clippy::box_default)]
pub fn boot_android(kernel: &mut Kernel, config: &ServicesConfig) -> Result<ServiceHost, String> {
    let system_pid = kernel.spawn(Uid::SYSTEM, "system_server");
    let mut host = ServiceHost::new(system_pid, registry::framework()?);
    let add = |host: &mut ServiceHost,
               kernel: &mut Kernel,
               svc: Box<dyn crate::service::SystemService>|
     -> Result<(), BinderError> {
        host.add_service(kernel, svc)?;
        Ok(())
    };

    let res: Result<(), BinderError> = (|| {
        add(
            &mut host,
            kernel,
            Box::new(activity::ActivityManagerService::new(config.screen)),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(alarm::AlarmManagerService::default()),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(audio::AudioService::new(config.max_volume)),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(clipboard::ClipboardService::default()),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(connectivity::ConnectivityManagerService::default()),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(location::LocationManagerService::new(config.has_gps)),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(notification::NotificationManagerService::default()),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(power::PowerManagerService::default()),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(sensor::SensorService::new(&config.sensors)),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(vibrator::VibratorService::new(config.has_vibrator)),
        )?;
        add(&mut host, kernel, Box::new(wifi::WifiService::default()))?;
        add(
            &mut host,
            kernel,
            Box::new(window::WindowManagerService::new(config.screen)),
        )?;
        add(
            &mut host,
            kernel,
            Box::new(package::PackageManagerService::default()),
        )?;
        // Remaining Table 2 services, backed by the generic implementation.
        for (descriptor, name) in [
            ("IBluetooth", "bluetooth"),
            ("ICameraService", "media.camera"),
            ("ICountryDetector", "country_detector"),
            ("IInputMethodManager", "input_method"),
            ("IInputManager", "input"),
            ("IKeyguardService", "keyguard"),
            ("INsdManager", "servicediscovery"),
            ("ISerialManager", "serial"),
            ("ITextServicesManager", "textservices"),
            ("IUiModeManager", "uimode"),
            ("IUsbManager", "usb"),
        ] {
            add(
                &mut host,
                kernel,
                Box::new(simple::SimpleService::new(descriptor, name)),
            )?;
        }
        Ok(())
    })();
    res.map_err(|e| format!("service registration failed: {e}"))?;
    Ok(host)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_registers_all_services() {
        let mut kernel = Kernel::new("3.4");
        let host = boot_android(&mut kernel, &ServicesConfig::default()).unwrap();
        // 13 rich + 11 simple = 24 (22 Table-2 + window + package).
        assert_eq!(host.len(), 24);
        let names = kernel.binder.list_services();
        for expected in [
            "activity",
            "alarm",
            "audio",
            "bluetooth",
            "clipboard",
            "connectivity",
            "country_detector",
            "input",
            "input_method",
            "keyguard",
            "location",
            "media.camera",
            "notification",
            "package",
            "power",
            "sensorservice",
            "serial",
            "servicediscovery",
            "textservices",
            "uimode",
            "usb",
            "vibrator",
            "wifi",
            "window",
        ] {
            assert!(names.contains(&expected), "missing service {expected}");
        }
    }

    #[test]
    fn hosts_share_one_framework_table() {
        let config = ServicesConfig::default();
        let a = boot_android(&mut Kernel::new("3.4"), &config).unwrap();
        let b = boot_android(&mut Kernel::new("3.4"), &config).unwrap();
        assert!(std::ptr::eq(a.interfaces(), b.interfaces()));
        let mut compiled = registry::compile_all().unwrap();
        let sensor = crate::sensor_native::compiled();
        compiled.insert(sensor.descriptor.clone(), sensor);
        assert_eq!(*a.interfaces(), compiled);
    }
}
